package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"qtag/internal/analytics"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100_000, 99.99, true},
		{99_999, 99.9, true},
		{10_000, 99.9, true},
		{1000, 99, true},
		{999, 95, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	d := newDist(samples)
	if d.p50() != 500 || d.p99() != 990 {
		t.Errorf("nearest-rank p50, p99 = %v, %v; want 500, 990", d.p50(), d.p99())
	}
	if s := d.describe(); !strings.Contains(s, "p99=990.000ms") || !strings.Contains(s, "n=1000") {
		t.Errorf("describe() = %q; want the rule's p99 with its sample count", s)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{layer: lAdmission, req: 7, start: 0, end: 100},
		{layer: lServer, req: 7, start: 10, end: 90},
		{layer: lStore, req: 7, start: 20, end: 40},
		{layer: lAggregate, req: 7, start: 25, end: 35},
		{layer: lJournal, req: 7, start: 50, end: 80},
		{layer: lWALWrite, req: -1, start: 55, end: 60},
		{layer: lWALSync, req: -1, start: 60, end: 75},
		{layer: lWALWrite, req: -1, start: 78, end: 85},  // next group: only [78,80) is this request's
		{layer: lWALSync, req: -1, start: 200, end: 210}, // outside every request
	}
	trees := buildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tr := trees[0]
	want := map[layer]int64{lAdmission: 20, lServer: 30, lStore: 10, lAggregate: 10, lJournal: 8}
	for i, s := range tr.spans {
		if tr.self[i] != want[s.layer] {
			t.Errorf("%s self = %d, want %d", layerNames[s.layer], tr.self[i], want[s.layer])
		}
	}
	if tr.io[lWALWrite] != 7 || tr.io[lWALSync] != 15 {
		t.Errorf("covered WAL I/O = write %d, fsync %d; want 7, 15", tr.io[lWALWrite], tr.io[lWALSync])
	}
	if tr.sum() != tr.root.dur() {
		t.Errorf("self times sum to %d, want the root's %d", tr.sum(), tr.root.dur())
	}

	// Overlapping siblings cannot happen in a real call tree; when they
	// do, the identity the traced run checks must fail.
	bad := append([]span(nil), spans[:3]...)
	bad = append(bad, span{layer: lJournal, req: 7, start: 30, end: 60})
	if tr := buildTrees(bad)[0]; tr.sum() == tr.root.dur() {
		t.Error("overlapping sibling spans passed the self-time identity")
	}
}

func TestCoverageMergesOverlaps(t *testing.T) {
	got := coverage(0, 100, []interval{{10, 30}, {20, 40}, {50, 60}, {90, 150}, {-5, 2}})
	if want := int64(30 + 10 + 10 + 2); got != want {
		t.Errorf("coverage = %d, want %d", got, want)
	}
}

func TestRateSearchTerminates(t *testing.T) {
	maxProbes := int(math.Ceil(math.Log2(gridSize + 1)))
	for _, knee := range []int{-1, 0, 1, 37, gridSize - 2, gridSize - 1} {
		probes := 0
		got := searchMaxRate(func(k int) bool {
			probes++
			if probes > 4*maxProbes {
				t.Fatalf("knee %d: search did not terminate", knee)
			}
			return k <= knee
		})
		if got != knee {
			t.Errorf("knee %d: search found %d", knee, got)
		}
		if probes > maxProbes {
			t.Errorf("knee %d: %d probes, want at most %d", knee, probes, maxProbes)
		}
	}
	if r := gridRate(1) / gridRate(0); r-1 >= 0.05 {
		t.Errorf("grid resolution %.3f is coarser than beacon_max_eps's bound allows", r-1)
	}
}

func fastOutcomes(n int) []outcome {
	outs := make([]outcome, n)
	for i := range outs {
		due := time.Duration(i) * time.Millisecond
		outs[i] = outcome{due: due, start: due, end: due + time.Millisecond, ok: true, events: 1}
	}
	return outs
}

func TestFailureCountsAsMissedLimit(t *testing.T) {
	outs := fastOutcomes(2000)
	if v := judgeStep(1000, outs); !v.pass {
		t.Fatalf("all-fast step failed: %v", v)
	}
	outs[500].ok = false
	v := judgeStep(1000, outs)
	if v.pass || v.failed != 1 {
		t.Errorf("step with a failed request: pass=%v failed=%d, want a miss", v.pass, v.failed)
	}
	// Enough failures to reach the percentile read as latencies past any limit.
	for i := 0; i < 30; i++ {
		outs[i*10].ok = false
	}
	if p99 := newDist(latencies(outs)).p99(); p99 < float64(p99Limit/time.Millisecond) {
		t.Errorf("p99 with 1.5%% failures = %.3fms, want past the %v limit", p99, p99Limit)
	}
	late := fastOutcomes(2000)
	for i := range late {
		late[i].late = 2 * lateLimit
	}
	if v := judgeStep(1000, late); v.pass || !v.invalid {
		t.Errorf("step whose generator ran late: pass=%v invalid=%v, want invalid", v.pass, v.invalid)
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	gen := func(seed uint64) [][]byte {
		var bodies [][]byte
		rng := rand.New(rand.NewPCG(seed, 1))
		for _, r := range beaconSchedule(newStream(seed, "b"), rng, refRate, 500*time.Millisecond) {
			bodies = append(bodies, r.body)
		}
		src := newBatchSource(seed, "m")
		for i := 0; i < 100; i++ {
			bodies = append(bodies, src.next().body)
		}
		return bodies
	}
	a, b, c := gen(42), gen(42), gen(43)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d bodies", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("body %d differs between runs of the same seed", i)
		}
	}
	if len(a) == len(c) && bytes.Equal(a[0], c[0]) {
		t.Error("different seeds gave the same traffic")
	}
}

func TestRecoveryGateRejectsWrongCounts(t *testing.T) {
	s := newStream(5, "g")
	acked, unacked := s.take(500), s.take(20)
	lo, hi := newReference(), newReference()
	lo.add(acked)
	hi.add(acked)
	hi.add(unacked)
	got, events := lo.counts() // what a correct collector reports
	if err := checkRecovered(got, events, lo, hi); err != nil {
		t.Fatalf("exact recovery rejected: %v", err)
	}
	if err := checkRecovered(got, events, lo, lo); err != nil {
		t.Fatalf("exact recovery with nothing unacknowledged rejected: %v", err)
	}
	for name, mutate := range map[string]func(map[string]campaignCounts) int64{
		"lost viewed impression": func(m map[string]campaignCounts) int64 {
			for id, c := range m {
				if c.Viewed > 0 {
					c.Viewed--
					m[id] = c
					return events
				}
			}
			t.Fatal("no viewed impression to drop")
			return 0
		},
		"duplicated served count": func(m map[string]campaignCounts) int64 {
			for id, c := range m {
				c.Served += int64(len(acked))
				m[id] = c
				return events
			}
			return events
		},
		"invented campaign": func(m map[string]campaignCounts) int64 {
			m["camp-999"] = campaignCounts{Impressions: 1, Served: 1}
			return events
		},
		"missing stored events": func(map[string]campaignCounts) int64 { return events - 1 },
		"duplicate stored events": func(map[string]campaignCounts) int64 {
			return events + int64(len(unacked)) + 1
		},
	} {
		wrong := map[string]campaignCounts{}
		for k, v := range got {
			wrong[k] = v
		}
		ev := mutate(wrong)
		if err := checkRecovered(wrong, ev, lo, hi); err == nil {
			t.Errorf("%s: gate accepted a wrong recovery", name)
		}
	}
}

// fakeSim is a simulation result with the paper's shape.
func fakeSim() *simResult {
	store := beacon.NewStore()
	s := newStream(9, "s")
	for _, e := range s.take(50) {
		_ = store.Submit(e)
	}
	res := &campaign.Result{Store: store}
	for i := 0; i < 10; i++ {
		res.Campaigns = append(res.Campaigns, campaign.CampaignResult{
			Served: 1000, QTagLoaded: 935, QTagInView: 470, TruthViewed: 480,
			Spec: campaign.Spec{Both: i < 4}, CommercialLoaded: 740, CommercialInView: 360,
		})
	}
	sim := &simResult{res: res, beacons: int64(store.Len())}
	sim.fig = analytics.Figure3(res)
	for _, c := range [][2]string{{"app", "Android"}, {"app", "iOS"}, {"browser", "Android"}, {"browser", "iOS"}} {
		sim.table = append(sim.table, analytics.Table2Cell{SiteType: c[0], OS: c[1], Served: 100, QTag: 0.9, Commercial: 0.6})
	}
	return sim
}

func TestSimGateRejectsWrongFigures(t *testing.T) {
	if err := checkSim(fakeSim()); err != nil {
		t.Fatalf("paper-shaped result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*simResult){
		"commercial ahead": func(s *simResult) {
			c := s.fig[beacon.SourceCommercial]
			c.MeanMeasured = 0.95
			s.fig[beacon.SourceCommercial] = c
		},
		"Q-Tag outside band": func(s *simResult) {
			q := s.fig[beacon.SourceQTag]
			q.MeanMeasured = 0.985
			s.fig[beacon.SourceQTag] = q
		},
		"commercial outside band": func(s *simResult) {
			c := s.fig[beacon.SourceCommercial]
			c.MeanMeasured = 0.60
			s.fig[beacon.SourceCommercial] = c
		},
		"viewability off the oracle": func(s *simResult) {
			for i := range s.res.Campaigns {
				s.res.Campaigns[i].TruthViewed = 300
			}
		},
		"store and sink disagree": func(s *simResult) { s.beacons++ },
		"empty Table 2 slice":     func(s *simResult) { s.table[2].Served = 0 },
		"Table 2 order flipped":   func(s *simResult) { s.table[0].Commercial = 0.95 },
	} {
		s := fakeSim()
		mutate(s)
		if err := checkSim(s); err == nil {
			t.Errorf("%s: gate accepted a wrong simulation", name)
		}
	}
}

func burn(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestCPUProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) == 0 {
		t.Fatal("no samples parsed")
	}
	found := false
	for _, st := range p.stacks {
		for _, fn := range st {
			if strings.HasSuffix(fn, ".burn") {
				found = true
			}
		}
	}
	if !found {
		t.Error("the busy function is on no parsed stack")
	}
	var sum float64
	for _, v := range p.cpuShares() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if got := packageOf("qtag/internal/browser.(*Page).frame"); got != "browser" {
		t.Errorf("packageOf = %q, want browser", got)
	}
}

func TestRecorderConcurrentAdds(t *testing.T) {
	const goroutines, each = 8, 150
	for _, capacity := range []int{goroutines * each, 1000} {
		rec, err := newRecorder(capacity)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					rec.add(span{layer: lStore, req: int32(g), start: rec.now(), end: rec.now()})
				}
			}(g)
		}
		wg.Wait()
		spans := rec.done()
		if want := goroutines*each - capacity; len(spans) != capacity || rec.dropped.Load() != int64(want) {
			t.Fatalf("capacity %d: kept %d spans, dropped %d; want %d and %d",
				capacity, len(spans), rec.dropped.Load(), capacity, want)
		}
		if capacity == goroutines*each {
			perReq := map[int32]int{}
			for _, s := range spans {
				perReq[s.req]++
			}
			for g := int32(0); g < goroutines; g++ {
				if perReq[g] != each {
					t.Errorf("goroutine %d: %d spans kept, want %d", g, perReq[g], each)
				}
			}
		}
	}
}
