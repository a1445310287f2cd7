package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder lists the tail percentiles the summaries consider, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for a timing's tail: the
// highest percentile with at least ten samples beyond it. ok is false
// when even the median has fewer than ten samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// dist is a sorted sample of one timing, in milliseconds.
type dist struct{ ms []float64 }

func newDist(samples []time.Duration) dist {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return dist{ms: ms}
}

func (d dist) n() int              { return len(d.ms) }
func (d dist) q(q float64) float64 { return quantile(d.ms, q) }
func (d dist) p50() float64        { return d.q(0.50) }
func (d dist) p99() float64        { return d.q(0.99) }
func (d dist) String() string      { return d.describe() }

// describe prints the median and the tail the reporting rule supports,
// with the sample count.
func (d dist) describe() string {
	p, ok := tailPercentile(d.n())
	if !ok {
		return fmt.Sprintf("n=%d (too few samples for a tail)", d.n())
	}
	return fmt.Sprintf("p50=%.3fms p%g=%.3fms n=%d", d.p50(), p, d.q(p/100), d.n())
}

// median returns the median of xs (0 when empty), leaving xs unchanged.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowSamples is the smallest window the windowed tail uses: ten
// samples beyond its p99.
const windowSamples = 1000

// windowP99s splits outs into n windows of consecutive requests and
// returns each window's p99 in ms (failures counted as misses). A disk
// stall on the shared reference box lands in one or two windows, so the
// median of the window p99s is the tail of a typical stretch of time.
func windowP99s(outs []outcome, n int) []float64 {
	var p99s []float64
	for i := 0; i < n; i++ {
		w := outs[i*len(outs)/n : (i+1)*len(outs)/n]
		p99s = append(p99s, newDist(latencies(w)).p99())
	}
	return p99s
}
