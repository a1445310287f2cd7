package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"qtag/internal/analytics"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
)

// Mean campaign sizes of the simulated runs: the EXPERIMENTS.md E7/E9
// configuration scaled so that one simulation fits each round of a
// benchmark run, and larger for the one profiled simulation of the
// traced run, whose CPU shares need enough profile samples.
const (
	simImpressions       = 120
	tracedSimImpressions = 400
)

// simConfig is the E7/E9 configuration: 99 campaigns, 4 of them carrying
// both tags at 3.9× the size, simulated nproc campaigns at a time.
func simConfig(seed uint64, impressions int, sink beacon.Sink) campaign.Config {
	return campaign.Config{
		Seed:                   seed,
		Campaigns:              99,
		ImpressionsPerCampaign: impressions,
		BothCampaigns:          4,
		BothImpressionsFactor:  3.9,
		Parallelism:            runtime.NumCPU(),
		ExtraSink:              sink,
	}
}

// countingSink counts the beacons the simulator emits.
type countingSink struct{ n atomic.Int64 }

func (c *countingSink) Submit(beacon.Event) error { c.n.Add(1); return nil }

// simResult is one simulator run with its outputs.
type simResult struct {
	res         *campaign.Result
	fig         map[beacon.Source]analytics.SolutionSummary
	table       []analytics.Table2Cell
	impressions int
	beacons     int64
	wall        time.Duration
	cpu         time.Duration
	peakHeapMB  float64
	figureTime  time.Duration
	table2Time  time.Duration
}

// heapSampler tracks the peak of the heap object bytes while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.peak = max(h.peak, heapBytes())
			select {
			case <-t.C:
			case <-h.stop:
				h.peak = max(h.peak, heapBytes())
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runSim regenerates Figure 3 and Table 2 in process. With prof non-nil
// it also records a CPU profile of the run into prof.
func runSim(seed uint64, impressions int, prof io.Writer) (*simResult, error) {
	runtime.GC()
	base := heapBytes()
	sink := &countingSink{}
	sampler := startHeapSampler()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	cpu0, t0 := selfCPU(), time.Now()
	res := campaign.New(simConfig(seed, impressions, sink)).Run()
	cpu1 := selfCPU()
	f0 := time.Now()
	fig := analytics.Figure3(res)
	f1 := time.Now()
	table := analytics.Table2ForResult(res)
	t1 := time.Now()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	peak := sampler.finish()
	out := &simResult{
		res: res, fig: fig, table: table, beacons: sink.n.Load(),
		wall: t1.Sub(t0), cpu: cpu1 - cpu0,
		figureTime: f1.Sub(f0), table2Time: t1.Sub(f1),
	}
	if peak > base {
		out.peakHeapMB = float64(peak-base) / (1 << 20)
	}
	for _, c := range res.Campaigns {
		out.impressions += c.Served
	}
	return out, nil
}

// E7 bands for the across-campaign mean measured rates (EXPERIMENTS.md
// E7/E8; the same bands TestFigure3Shape asserts).
var (
	qtagMeasuredBand       = [2]float64{0.90, 0.97}
	commercialMeasuredBand = [2]float64{0.68, 0.80}
)

const truthTolerance = 0.05 // Q-Tag viewability vs the simulator's oracle

// checkSim is the paper-sim gate.
func checkSim(s *simResult) error {
	q, c := s.fig[beacon.SourceQTag], s.fig[beacon.SourceCommercial]
	if q.MeanMeasured <= c.MeanMeasured {
		return fmt.Errorf("Q-Tag measured rate %.3f does not exceed commercial %.3f", q.MeanMeasured, c.MeanMeasured)
	}
	if q.MeanMeasured < qtagMeasuredBand[0] || q.MeanMeasured > qtagMeasuredBand[1] {
		return fmt.Errorf("Q-Tag measured rate %.3f outside E7 band %v", q.MeanMeasured, qtagMeasuredBand)
	}
	if c.MeanMeasured < commercialMeasuredBand[0] || c.MeanMeasured > commercialMeasuredBand[1] {
		return fmt.Errorf("commercial measured rate %.3f outside E7 band %v", c.MeanMeasured, commercialMeasuredBand)
	}
	var served, loaded, inView, truth int
	for _, camp := range s.res.Campaigns {
		served += camp.Served
		loaded += camp.QTagLoaded
		inView += camp.QTagInView
		truth += camp.TruthViewed
	}
	if served == 0 || loaded == 0 {
		return fmt.Errorf("simulation served %d impressions, measured %d", served, loaded)
	}
	qv, tv := float64(inView)/float64(loaded), float64(truth)/float64(served)
	if math.Abs(qv-tv) > truthTolerance {
		return fmt.Errorf("Q-Tag viewability %.3f is more than %.0f pp from the oracle's %.3f", qv, truthTolerance*100, tv)
	}
	if got := int64(s.res.Store.Len()); got != s.beacons {
		return fmt.Errorf("store holds %d events, the sink counted %d beacons", got, s.beacons)
	}
	// Table 2: every slice populated, and Q-Tag ahead in Android apps, the
	// paper's widest gap (the narrow browser/iOS gap is within sampling
	// noise at this size, so it is not gated).
	if len(s.table) != 4 {
		return fmt.Errorf("Table 2 has %d rows, want 4", len(s.table))
	}
	for _, cell := range s.table {
		if cell.Served == 0 {
			return fmt.Errorf("Table 2 %s/%s is empty", cell.SiteType, cell.OS)
		}
		if cell.SiteType == "app" && cell.OS == "Android" && cell.QTag <= cell.Commercial {
			return fmt.Errorf("Table 2 app/Android: Q-Tag %.3f does not exceed commercial %.3f", cell.QTag, cell.Commercial)
		}
	}
	return nil
}
