// Package aggregate maintains streaming per-campaign viewability
// accumulators — the campaign-level product the paper's §4–§5 report:
// for every campaign × ad format, how many impressions were viewed,
// measured-but-not-viewed, and not measured by each solution, plus
// in-view dwell-time histograms from paired in-view/out-of-view beacons.
//
// The aggregator is fed by the beacon store's first-seen-event observer
// (Store.AddObserver), so it inherits the store's idempotency: duplicate
// beacons, HTTP retries and overlapping WAL replays never reach it, and
// rebuilding it from a WAL replay on boot reproduces exactly the state a
// continuously-running process would hold. Every update is incremental —
// serving a report never scans raw events — and the per-impression
// state is internal/lifecycle's table, evicted on a TTL so memory stays
// bounded under unbounded traffic while the campaign counters keep
// their all-time totals.
//
// Classification per impression and source s (mirrors §6's definitions):
//
//	viewed        ≥1 in-view event from s
//	not-viewed    ≥1 loaded event from s, no in-view
//	not-measured  everything else (no loaded check-in from s)
//
// The three buckets partition the campaign's distinct impressions, so
// viewed + not-viewed + not-measured = impressions always holds — even
// across evictions. The streaming state is proven equivalent to a batch
// recompute over the raw event set by the property tests in this
// package (see Recompute).
package aggregate

import (
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/lifecycle"
	"qtag/internal/obs"
)

// Options tunes an Aggregator. The zero value picks sensible defaults.
type Options struct {
	// Shards is the lock-stripe count of the impression table and the
	// campaign rows, rounded up to a power of two (default 16).
	Shards int
	// TTL evicts an impression's lifecycle state after this much
	// arrival-clock idle time (see lifecycle.Options: default 15m, <0
	// disables). Campaign counters are never evicted. TTL must exceed
	// the longest served→last-beacon gap or a late beacon re-opens the
	// impression and counts it again.
	TTL time.Duration
	// Window is the rollup window width (default 1m).
	Window time.Duration
	// MaxWindows bounds retained rollup windows (default 60).
	MaxWindows int
	// MaxOpen caps open impression states (0: unbounded). Pressure
	// eviction freezes totals exactly like TTL eviction, just early, so
	// the aggregator degrades measurement fidelity instead of growing
	// until the kernel OOM-kills the node.
	MaxOpen int
	// DwellBounds are the dwell histogram bucket upper bounds in seconds
	// (default obs.DwellBuckets).
	DwellBounds []float64
	// Now is the arrival clock used for TTL accounting and window
	// assignment (default time.Now). Tests inject a fake.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.MaxWindows <= 0 {
		o.MaxWindows = 60
	}
	if o.DwellBounds == nil {
		o.DwellBounds = obs.DwellBuckets
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// rowKey addresses one campaign × format accumulator row.
type rowKey struct {
	Campaign string
	Format   string
}

// srcCounts are one row's per-solution status counters. notViewed is
// maintained with decrements (loaded-then-in-view moves the impression
// from not-viewed to viewed), so it is not monotonic — it is a gauge of
// the current classification, not an event count.
type srcCounts struct {
	measured  int64 // impressions with a loaded check-in
	viewed    int64 // impressions with an in-view
	notViewed int64 // loaded but (so far) no in-view
}

// row is one campaign × format accumulator.
type row struct {
	impressions int64 // distinct impressions observed
	served      int64 // impressions with a served event
	src         map[beacon.Source]*srcCounts
}

// dwellKey addresses one campaign × source dwell histogram. Dwell is
// not sliced by format: an impression may migrate format buckets when a
// late event carries a different format, and histograms cannot be
// un-observed.
type dwellKey struct {
	Campaign string
	Source   string
}

// campShard is one lock-striped partition of the campaign table. A
// campaign's rows and dwell histograms all live in one shard, so a
// format migration is atomic under a single lock.
type campShard struct {
	mu    sync.Mutex
	rows  map[rowKey]*row
	dwell map[dwellKey]*DwellHist
}

// Aggregator is the streaming accumulator set. All methods are safe for
// concurrent use. Feed it through beacon.Store.AddObserver so it only
// ever sees first-seen events.
type Aggregator struct {
	opts  Options
	imps  *lifecycle.Table // open impressions; Label holds the format bucket
	camps []campShard      // accumulators, by hash(campaign)
	mask  uint32

	winMu   sync.Mutex
	windows windowRing

	updates   atomic.Int64 // events folded in
	dwellObs  *obs.Histogram
	dwellPair atomic.Int64 // completed in-view/out-of-view pairs
}

// New returns an empty aggregator.
func New(opts Options) *Aggregator {
	opts = opts.withDefaults()
	size := 1
	for size < opts.Shards {
		size <<= 1
	}
	a := &Aggregator{
		opts:     opts,
		camps:    make([]campShard, size),
		mask:     uint32(size - 1),
		dwellObs: obs.NewHistogram(opts.DwellBounds...),
	}
	a.imps = lifecycle.New(lifecycle.Options{Shards: size, TTL: opts.TTL, MaxOpen: opts.MaxOpen}, a.fold)
	for i := range a.camps {
		a.camps[i].rows = make(map[rowKey]*row)
		a.camps[i].dwell = make(map[dwellKey]*DwellHist)
	}
	a.windows.init(opts.Window, opts.MaxWindows)
	return a
}

// formatBucket decides which format row an impression belongs to: the
// lexicographically smallest non-empty format seen across its events,
// or "" when no event carried one. The rule is order-independent, which
// is what makes streaming aggregation equal batch recompute when events
// of one impression disagree on format (they should not, but the wire
// does not enforce it).
func formatBucket(current, incoming string) string {
	if incoming == "" {
		return current
	}
	if current == "" || incoming < current {
		return incoming
	}
	return current
}

// Observe folds one first-seen event into the accumulators. It is
// designed to be installed as a beacon.Store observer: the caller
// guarantees the event is not a duplicate, and that events of one
// impression arrive serialized (the store's shard lock does both).
// Events that fail validation are ignored — the store never emits them.
func (a *Aggregator) Observe(e beacon.Event) {
	if e.Validate() != nil {
		return
	}
	now := a.opts.Now()
	d := a.imps.Observe(e, now)
	if d.Paired {
		a.dwellObs.ObserveDuration(d.Dwell)
		a.dwellPair.Add(1)
	}
	a.updates.Add(1)
	a.winMu.Lock()
	a.windows.observe(now, e.CampaignID, d.Created, d.ViewedFirst)
	a.winMu.Unlock()
}

// fold applies one event's lifecycle delta to the campaign rows. The
// table calls it under the impression's shard lock; the campaign shard
// lock nests inside (imp→camp lock order, always).
func (a *Aggregator) fold(im *lifecycle.Impression, e beacon.Event, d lifecycle.Delta) {
	oldFormat := im.Label
	im.Label = formatBucket(im.Label, e.Meta.Format)

	cs := &a.camps[beacon.HashID(e.CampaignID)&a.mask]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if !d.Created && im.Label != oldFormat {
		// Move the impression's pre-event contributions first; the deltas
		// from this event then land on the new row only, never both.
		cs.migrate(im, e.Source, d, e.CampaignID, oldFormat, im.Label)
	}
	r := cs.row(rowKey{e.CampaignID, im.Label})
	if d.Created {
		r.impressions++
	}
	if d.ServedFirst {
		r.served++
	}
	if d.LoadedFirst || d.ViewedFirst {
		s := im.Source(e.Source)
		sc := r.srcCounts(e.Source)
		if d.LoadedFirst {
			sc.measured++
			if !s.Viewed {
				sc.notViewed++
			}
		}
		if d.ViewedFirst {
			sc.viewed++
			if s.Loaded {
				sc.notViewed--
			}
		}
	}
	if d.Paired {
		cs.dwellHist(dwellKey{e.CampaignID, string(e.Source)}, a.opts.DwellBounds).Observe(d.Dwell)
	}
}

// Windows returns the retained rollup windows, oldest first.
func (a *Aggregator) Windows() []WindowSnapshot {
	a.winMu.Lock()
	defer a.winMu.Unlock()
	return a.windows.snapshot()
}

// row returns (creating if needed) the accumulator row. Caller holds
// the shard lock.
func (c *campShard) row(k rowKey) *row {
	r := c.rows[k]
	if r == nil {
		r = &row{src: make(map[beacon.Source]*srcCounts)}
		c.rows[k] = r
	}
	return r
}

// srcCounts returns (creating if needed) a row's per-source counters.
func (r *row) srcCounts(s beacon.Source) *srcCounts {
	sc := r.src[s]
	if sc == nil {
		sc = &srcCounts{}
		r.src[s] = sc
	}
	return sc
}

// dwellHist returns (creating if needed) the campaign × source dwell
// histogram. Caller holds the shard lock.
func (c *campShard) dwellHist(k dwellKey, bounds []float64) *DwellHist {
	h := c.dwell[k]
	if h == nil {
		h = NewDwellHist(bounds)
		c.dwell[k] = h
	}
	return h
}

// migrate moves one impression's pre-event contributions between
// format rows of the same campaign — triggered when a late event
// carries a lexicographically smaller format. The impression's state
// already includes the event from src whose delta is d, so that
// event's own transitions are subtracted back out here. Caller holds
// the shard lock; both rows live in it because they share the campaign.
func (c *campShard) migrate(im *lifecycle.Impression, src beacon.Source, d lifecycle.Delta, campaign, from, to string) {
	fr := c.row(rowKey{campaign, from})
	tr := c.row(rowKey{campaign, to})
	fr.impressions--
	tr.impressions++
	if im.Served && !d.ServedFirst {
		fr.served--
		tr.served++
	}
	for _, s := range im.Sources {
		loaded, viewed := s.Loaded, s.Viewed
		if s.Source == src {
			loaded = loaded && !d.LoadedFirst
			viewed = viewed && !d.ViewedFirst
		}
		if !loaded && !viewed {
			continue
		}
		fc, tc := fr.srcCounts(s.Source), tr.srcCounts(s.Source)
		if loaded {
			fc.measured--
			tc.measured++
		}
		switch {
		case viewed:
			fc.viewed--
			tc.viewed++
		case loaded:
			fc.notViewed--
			tc.notViewed++
		}
	}
	// A drained row is garbage only if nothing else contributes to it;
	// impressions is the invariant total, so zero means empty.
	if fr.impressions == 0 {
		delete(c.rows, rowKey{campaign, from})
	}
}

// Sweep drops the working state of every impression idle for at least
// the TTL as of now, returning how many were evicted. The campaign
// counters keep their totals; only the dedup/pairing state goes, which
// bounds memory to TTL × arrival rate open impressions. Unpaired
// in-view cycles on an evicted impression never produce a dwell sample.
func (a *Aggregator) Sweep(now time.Time) int { return a.imps.Sweep(now) }

// OpenImpressions returns how many impressions currently hold working
// state — the quantity TTL eviction bounds.
func (a *Aggregator) OpenImpressions() int { return a.imps.Open() }

// Updates returns how many first-seen events have been folded in.
func (a *Aggregator) Updates() int64 { return a.updates.Load() }

// Evicted returns how many impression states eviction has dropped
// (TTL sweeps plus MaxOpen pressure evictions).
func (a *Aggregator) Evicted() int64 { return a.imps.Evicted() }

// PressureEvicted returns the subset of evictions forced by the MaxOpen
// working-set cap rather than the TTL sweep.
func (a *Aggregator) PressureEvicted() int64 { return a.imps.PressureEvicted() }

// DwellPairs returns how many in-view/out-of-view cycles completed.
func (a *Aggregator) DwellPairs() int64 { return a.dwellPair.Load() }

// RegisterMetrics exports the aggregation layer on a metrics registry:
// throughput, the memory-bounding gauges, and the global dwell
// histogram (per-campaign dwell lives on GET /report).
func (a *Aggregator) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("qtag_aggregate_updates_total", "First-seen events folded into the streaming accumulators.", a.updates.Load)
	r.CounterFunc("qtag_aggregate_evicted_total", "Impression working states dropped by TTL eviction.", a.imps.Evicted)
	r.CounterFunc("qtag_aggregate_pressure_evicted_total", "Impression working states evicted early by the MaxOpen cap.", a.imps.PressureEvicted)
	r.CounterFunc("qtag_aggregate_dwell_pairs_total", "Completed in-view/out-of-view dwell cycles.", a.dwellPair.Load)
	r.GaugeFunc("qtag_aggregate_open_impressions", "Impressions currently holding working state (bounded by TTL eviction).",
		func() float64 { return float64(a.OpenImpressions()) })
	r.GaugeFunc("qtag_aggregate_campaign_rows", "Campaign × format accumulator rows.",
		func() float64 { return float64(a.rowCount()) })
	r.RegisterHistogram("qtag_aggregate_dwell_seconds", "In-view dwell per completed cycle, all campaigns.", a.dwellObs)
}

func (a *Aggregator) rowCount() int {
	n := 0
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		n += len(cs.rows)
		cs.mu.Unlock()
	}
	return n
}
