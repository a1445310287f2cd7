// Package obs is the zero-dependency observability layer of the Q-Tag
// system: a metrics registry (atomic counters, callback-backed gauges,
// fixed-bucket latency histograms) exported in Prometheus text format,
// and a per-impression lifecycle tracer whose timestamps come from the
// simulation's virtual clock so traces are deterministic under test.
//
// Every delivery-pipeline component (beacon server, store-and-forward
// queue, circuit breaker, HTTP sink, WAL journal) owns its
// instruments and registers them on a Registry via a RegisterMetrics
// method; binaries expose the registry as GET /metrics (qtag-server) or
// as an end-of-run dump (qtag-sim). /healthz remains a thin JSON view
// over the same instruments.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// NewCounter returns a fresh counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored — counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Default histogram buckets, chosen to match the delivery pipeline's
// operating ranges.
var (
	// LatencyBuckets covers sub-millisecond in-process flushes up to
	// multi-second wire retries (seconds, like Prometheus conventions).
	LatencyBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
	// SizeBuckets covers batch sizes from single events to a full queue
	// drain at the default MaxBatch and beyond.
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	// DwellBuckets covers in-view dwell times (seconds): the standard
	// viewability thresholds sit at 1 s (display) and 2 s (video), so the
	// buckets resolve finely around them and coarsely up to a minute.
	DwellBuckets = []float64{.1, .25, .5, 1, 2, 5, 10, 30, 60}
)

// Histogram is a fixed-bucket histogram with cumulative-bucket export à
// la Prometheus: an observation v is counted in every bucket whose upper
// bound is ≥ v ("le" semantics — a value exactly on a boundary lands in
// that boundary's bucket). The zero value is not usable; construct with
// NewHistogram. Safe for concurrent use.
type Histogram struct {
	bounds    []float64
	counts    []int64 // len(bounds)+1; last is +Inf, accessed atomically
	count     atomic.Int64
	sumBits   atomic.Uint64 // float64 bits of the running sum
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one concrete observation — and the trace that caused
// it — to a histogram bucket, so a scrape of qtag_ingest_latency can
// jump straight to /debug/traces?trace=<id> for a slow request.
type Exemplar struct {
	Value   float64
	TraceID string
	At      time.Time
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// With no bounds it defaults to LatencyBuckets. Bounds are sorted and
// deduplicated defensively.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	uniq := b[:0]
	for i, v := range b {
		if i == 0 || v != b[i-1] {
			uniq = append(uniq, v)
		}
	}
	return &Histogram{
		bounds:    uniq,
		counts:    make([]int64, len(uniq)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uniq)+1),
	}
}

// Observe records one value. NaN observations are ignored — they would
// poison the sum without carrying information.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) → +Inf
	atomic.AddInt64(&h.counts[i], 1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records a value like Observe and, when traceID is
// non-empty, remembers it as the bucket's exemplar (last write wins).
func (h *Histogram) ObserveExemplar(v float64, traceID string, at time.Time) {
	if math.IsNaN(v) {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, At: at})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); the final entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	// Exemplars holds one entry per bucket (nil when the bucket never saw
	// an exemplar observation); the final entry is the +Inf bucket's.
	Exemplars []*Exemplar
}

// Snapshot copies the histogram's state. The bucket counts and the total
// are read without a global lock, so under concurrent observation the
// snapshot is approximate (each individual value is atomic).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = atomic.LoadInt64(&h.counts[i])
	}
	s.Exemplars = make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// Cumulative returns the running bucket totals, Prometheus-style: entry i
// counts observations ≤ Bounds[i]; the last entry equals the total count.
func (s HistogramSnapshot) Cumulative() []int64 {
	out := make([]int64, len(s.Counts))
	var run int64
	for i, c := range s.Counts {
		run += c
		out[i] = run
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket containing the target rank, the same estimate
// Prometheus' histogram_quantile computes. Observations in the +Inf
// bucket clamp to the highest finite bound. Returns NaN when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket
			if len(s.Bounds) == 0 {
				return math.NaN()
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(prev))/float64(c)
	}
	return math.NaN()
}
