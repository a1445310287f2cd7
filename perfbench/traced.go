package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/report"
)

// runtimeSample holds the Go runtime counters the traced run reports,
// with the process's CPU time. The runtime's GC CPU estimate advances at
// the end of each GC cycle, so a pass in which no cycle ends reads 0.
type runtimeSample struct {
	gcSeconds float64
	allocs    float64
	cpu       time.Duration
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Float64(), float64(s[1].Value.Uint64()), selfCPU()}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pass is one in-process run of the workload's primary phase.
type pass struct {
	gen      *genReport
	outs     []outcome
	reports  []outcome
	seconds  float64
	st       *stack
	spans    []span
	rt0, rt1 runtimeSample
	heapPeak uint64
}

// runPass boots the stack on a copy of state and drives it with a
// generator child. The stack is left open for the caller to inspect.
func runPass(e *env, w workloadSpec, seed uint64, state, name string, dur time.Duration, rec *recorder, keyReq map[eventID]int32) (*pass, error) {
	dir := filepath.Join(e.work, name)
	if err := copyDir(state, dir); err != nil {
		return nil, err
	}
	st, err := buildStack(dir, w.detect, rec, keyReq)
	if err != nil {
		return nil, err
	}
	p := &pass{st: st}
	if rec != nil {
		// Boot replay went through the wrapped observers; the pass's
		// figures start after it.
		rec.reset()
		st.firstSeen.Store(0)
		st.dups.Store(0)
		st.detectDups.Store(0)
	}
	runtime.GC()
	sampler := startHeapSampler()
	p.rt0 = readRuntime()
	t0 := time.Now()
	p.gen, err = generate(e, w.primary, st.url, seed, dur)
	p.seconds = time.Since(t0).Seconds()
	p.rt1 = readRuntime()
	p.heapPeak = sampler.finish()
	if err != nil {
		st.close()
		return nil, err
	}
	p.outs, p.reports = fromWire(p.gen.Outs), fromWire(p.gen.Reports)
	if rec != nil {
		p.spans = rec.done()
	}
	return p, nil
}

// clientSummary is the end-to-end view of a pass.
func (p *pass) clientSummary(w workloadSpec) string {
	d := newDist(latencies(p.outs))
	s := fmt.Sprintf("%s p50 %.3fms p99 %.3fms n=%d", w.primary, d.p50(), d.p99(), d.n())
	if w.primary == "batches" {
		var ev int
		for _, o := range p.outs {
			ev += o.events
		}
		s += fmt.Sprintf(", ingest %.0f events/s, reports %s", float64(ev)/p.seconds, newDist(latencies(p.reports)))
	}
	return s
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// nsQuantile returns the nearest-rank q-quantile of nanosecond values,
// divided by div (1e3 for microseconds, 1e6 for milliseconds).
func nsQuantile(ns []int64, q float64, div float64) float64 {
	f := make([]float64, len(ns))
	for i, v := range ns {
		f[i] = float64(v) / div
	}
	sort.Float64s(f)
	return quantile(f, q)
}

// runTraced builds the layers in process, runs the workload's primary
// phase once untraced and once traced, and reports per-layer metrics.
func runTraced(e *env, w workloadSpec, seed uint64, budget time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	ref := newReference()
	state := filepath.Join(e.work, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	if w.prefill > 0 {
		if err := fillWAL(state, seed, w.prefill, ref); err != nil {
			return nil, err
		}
	}
	dur := budget * 30 / 100

	plain, err := runPass(e, w, seed, state, "untraced", dur, nil, nil)
	if err != nil {
		return nil, err
	}
	plain.st.close()

	var keyReq map[eventID]int32
	var sched []request
	if w.primary == "beacons" {
		sched = tracedBeacons(seed, dur)
		keyReq = make(map[eventID]int32, len(sched))
		for i, r := range sched {
			keyReq[eventID{r.events[0].ImpressionID, r.events[0].Type}] = int32(i)
		}
	}
	rec, err := newRecorder(4_000_000)
	if err != nil {
		return nil, err
	}
	tp, err := runPass(e, w, seed, state, "traced", dur, rec, keyReq)
	if err != nil {
		return nil, err
	}
	defer tp.st.close()
	st := tp.st
	fmt.Printf("workload %s (in process, %s): untraced %s\n", w.name, pinnedFlags, plain.clientSummary(w))
	fmt.Printf("workload %s (in process, %s): traced   %s\n", w.name, pinnedFlags, tp.clientSummary(w))
	pu, pt := newDist(latencies(plain.outs)).p50(), newDist(latencies(tp.outs)).p50()
	fmt.Printf("tracing overhead: p50 %+.3fms (%+.1f%%)\n", pt-pu, 100*(pt-pu)/pu)
	if d := rec.dropped.Load(); d > 0 {
		return nil, fmt.Errorf("span buffer overflowed by %d spans", d)
	}

	// Requests' acknowledged events, for the live gate and offline timings.
	var acked [][]beacon.Event
	var bodies []request
	switch w.primary {
	case "beacons":
		for i, o := range tp.outs {
			if o.ok {
				acked = append(acked, sched[i].events)
			}
		}
		bodies = sched
	case "batches":
		src := tracedBatches(seed)
		for _, o := range tp.outs {
			r := src.next()
			bodies = append(bodies, r)
			if o.ok {
				acked = append(acked, r.events)
			}
		}
	}
	for _, ev := range acked {
		ref.add(ev)
	}
	for _, o := range append(tp.outs, tp.reports...) {
		res.Attempted++
		if !o.ok {
			res.Failed++
		}
	}

	// Gate: the live /report holds exactly what was acknowledged.
	got, err := fetchReport(st.url)
	if err != nil {
		return nil, err
	}
	events, err := fetchStoreEvents(st.url)
	if err != nil {
		return nil, err
	}
	var gate *gateError
	if err := checkRecovered(got, events, ref, ref); err != nil {
		gate = &gateError{"traced ingest gate: " + err.Error()}
	}

	// Per-request trees: self time per layer, and the identity that a
	// request's self times sum to its outermost handler time.
	trees := buildTrees(tp.spans)
	clientByID := map[int32]outcome{}
	for i, o := range tp.outs {
		clientByID[int32(i)] = o
	}
	var gap, admSelf, srvSelf []int64
	var mismatched, ingestReqs int
	layerSelf := map[layer]int64{}
	layerDur := map[layer]int64{}
	layerN := map[layer]int64{}
	var reportDur, reportBytes []int64
	for _, t := range trees {
		if t.sum() != t.root.dur() {
			mismatched++
		}
		isReport := false
		for _, s := range t.spans {
			if s.layer == lReport {
				isReport = true
				reportDur = append(reportDur, s.dur())
				reportBytes = append(reportBytes, s.bytes)
			}
		}
		if isReport {
			continue
		}
		ingestReqs++
		for i, s := range t.spans {
			layerSelf[s.layer] += t.self[i]
			layerDur[s.layer] += s.dur()
			layerN[s.layer]++
			switch s.layer {
			case lAdmission:
				admSelf = append(admSelf, t.self[i])
			case lServer:
				srvSelf = append(srvSelf, t.self[i])
			}
		}
		if o, ok := clientByID[t.req]; ok {
			gap = append(gap, int64(o.end-o.start)-t.root.dur())
		}
	}
	fmt.Printf("self-time identity: %d of %d requests' layer self times sum exactly to their outermost handler time\n",
		len(trees)-mismatched, len(trees))
	if mismatched > 0 && gate == nil {
		gate = &gateError{fmt.Sprintf("%d requests' self times do not sum to their handler time", mismatched)}
	}
	var fsyncs, writes []int64
	var writeBytes int64
	for _, s := range tp.spans {
		switch s.layer {
		case lWALSync:
			fsyncs = append(fsyncs, s.dur())
		case lWALWrite:
			writes = append(writes, s.dur())
			writeBytes += s.bytes
		}
	}
	journalCalls := layerN[lJournal]
	perEvent := func(ns int64, n int64) float64 { return ratio(usOf(ns), float64(n)) }
	res.set("http.client_gap_us_p50", nsQuantile(gap, 0.5, 1e3), "us")
	res.set("admission.self_us_p50", nsQuantile(admSelf, 0.5, 1e3), "us")
	res.set("admission.shed", float64(st.ctrl.TotalShed()), "count")
	res.set("server.requests", float64(ingestReqs), "count")
	res.set("server.self_us_per_req_p50", nsQuantile(srvSelf, 0.5, 1e3), "us")
	res.set("store.events", float64(st.firstSeen.Load()), "count")
	res.set("store.dups", float64(st.dups.Load()), "count")
	res.set("store.self_us_per_event", perEvent(layerSelf[lStore], layerN[lStore]), "us")
	res.set("aggregate.observe_us_per_event", perEvent(layerDur[lAggregate], layerN[lAggregate]), "us")
	res.set("journal.calls", float64(journalCalls), "count")
	res.set("journal.blocked_us_per_event", perEvent(layerDur[lJournal], journalCalls), "us")
	res.set("wal.fsyncs", float64(len(fsyncs)), "count")
	res.set("wal.fsync_us_p50", nsQuantile(fsyncs, 0.5, 1e3), "us")
	res.set("wal.fsync_us_p99", nsQuantile(fsyncs, 0.99, 1e3), "us")
	res.set("wal.writes", float64(len(writes)), "count")
	res.set("wal.bytes_per_event", ratio(float64(writeBytes), float64(journalCalls)), "bytes")
	res.set("wal.records_per_fsync", ratio(float64(journalCalls), float64(len(fsyncs))), "ratio")
	res.set("wal.wait_us_per_event", perEvent(layerSelf[lJournal], journalCalls), "us")
	res.set("wal.snapshots", float64(st.fs.snapshots.Load()), "count")
	res.set("wal.replay_s", st.replay.Seconds(), "s")
	res.set("wal.replay_records", float64(st.replayRecords), "count")
	res.set("runtime.gc_cpu_frac", ratio(tp.rt1.gcSeconds-tp.rt0.gcSeconds, (tp.rt1.cpu-tp.rt0.cpu).Seconds()), "fraction")
	res.set("runtime.allocs_per_event", ratio(tp.rt1.allocs-tp.rt0.allocs, float64(journalCalls)), "allocs")
	res.set("runtime.heap_peak_mb", float64(tp.heapPeak)/(1<<20), "MB")
	var late []time.Duration
	for _, o := range append(tp.outs, tp.reports...) {
		late = append(late, o.late)
	}
	res.set("loadgen.late_ms_p99", newDist(late).p99(), "ms")
	res.set("loadgen.cpu_s", float64(tp.gen.CPUNs)/1e9, "s")

	// Layers the primary phase does not exercise, and snapshot reads, are
	// timed on this workload's own data through the same public calls.
	if err := offlineLayers(res, w, st, bodies, acked, reportDur, reportBytes, layerDur[lDetect], layerN[lDetect]); err != nil {
		return nil, err
	}

	if err := dumpSpans(filepath.Join(e.out, fmt.Sprintf("spans-%s-seed%d.csv", w.name, seed)), tp.spans); err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	sim, err := runSim(seed, tracedSimImpressions, &prof)
	if err != nil {
		return nil, err
	}
	printSim(sim)
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := p.cpuShares()
	for _, pkg := range append(simPackages, "gc") {
		res.set("sim.cpu_share."+pkg, shares[pkg], "fraction")
	}
	fmt.Printf("sim cpu share other: %.3f\n", shares["other"])
	res.set("sim.beacons", float64(sim.beacons), "count")
	stored := sim.res.Store.Events()
	fresh := beacon.NewStore()
	t0 := time.Now()
	for _, ev := range stored {
		_ = fresh.Submit(ev)
	}
	res.set("sim.beacon_submit_us_per_event", ratio(usOf(time.Since(t0).Nanoseconds()), float64(len(stored))), "us")
	res.set("analytics.figure3_ms", float64(sim.figureTime)/1e6, "ms")
	res.set("analytics.table2_ms", float64(sim.table2Time)/1e6, "ms")
	res.Attempted++
	if err := checkSim(sim); err != nil {
		res.Failed++
		return res, &gateError{"paper-sim gate: " + err.Error()}
	}
	if gate != nil {
		return res, gate
	}
	fmt.Println("gates: traced ingest ok, self-time identity ok, paper-sim ok")
	return res, nil
}

// offlineLayers sets the codec, detect, aggregate-snapshot and report
// metrics by timing the packages' public calls on the workload's data.
func offlineLayers(res *result, w workloadSpec, st *stack, bodies []request, acked [][]beacon.Event,
	reportDur, reportBytes []int64, detectNs, detectN int64) error {
	// Codec: both decoders on this workload's requests, each in its wire
	// form (JSON objects or arrays, binary batch frames).
	var jsonBodies, binBodies [][]byte
	var events int
	for _, r := range bodies {
		events += len(r.events)
		if r.binary {
			binBodies = append(binBodies, r.body)
			b, err := json.Marshal(r.events)
			if err != nil {
				return err
			}
			jsonBodies = append(jsonBodies, b)
		} else {
			jsonBodies = append(jsonBodies, r.body)
			binBodies = append(binBodies, beacon.AppendBinaryEvents(nil, r.events))
		}
	}
	if events == 0 {
		return fmt.Errorf("no %s requests to time", w.primary)
	}
	t0 := time.Now()
	for _, b := range jsonBodies {
		var err error
		if b[0] == '[' {
			var evs []beacon.Event
			err = json.Unmarshal(b, &evs)
		} else {
			var ev beacon.Event
			err = json.Unmarshal(b, &ev)
		}
		if err != nil {
			return fmt.Errorf("json decode: %w", err)
		}
	}
	res.set("codec.json_decode_us_per_event", float64(time.Since(t0).Nanoseconds())/1e3/float64(events), "us")
	var dec beacon.BatchDecoder
	t0 = time.Now()
	for _, b := range binBodies {
		if _, err := dec.Decode(b); err != nil {
			return fmt.Errorf("binary decode: %w", err)
		}
	}
	res.set("codec.binary_decode_us_per_event", float64(time.Since(t0).Nanoseconds())/1e3/float64(events), "us")

	const snapshots = 10
	var aggSnap []int64
	for i := 0; i < snapshots; i++ {
		t := time.Now()
		st.agg.Snapshot()
		aggSnap = append(aggSnap, time.Since(t).Nanoseconds())
	}
	res.set("aggregate.snapshot_ms_p50", nsQuantile(aggSnap, 0.5, 1e6), "ms")

	// Detect: the live detector's spans when the workload runs it;
	// otherwise a detector fed this workload's acknowledged events.
	det, dupCalls := st.det, st.detectDups.Load()
	if det == nil {
		det = detect.New(detect.Options{Shards: beacon.DefaultStoreShards, TTL: 15 * time.Minute})
		store := beacon.NewStore()
		var dups int64
		store.AddObserver(det.Observe)
		store.AddDupObserver(func(e beacon.Event) { dups++; det.ObserveDup(e) })
		t := time.Now()
		for _, evs := range acked {
			for _, ev := range evs {
				_ = store.Submit(ev)
			}
		}
		detectNs, detectN, dupCalls = time.Since(t).Nanoseconds(), int64(store.Len())+dups, dups
	}
	res.set("detect.observe_us_per_event", ratio(usOf(detectNs), float64(detectN)), "us")
	res.set("detect.dup_calls", float64(dupCalls), "count")
	var detSnap []int64
	for i := 0; i < snapshots; i++ {
		t := time.Now()
		det.Snapshot()
		detSnap = append(detSnap, time.Since(t).Nanoseconds())
	}
	res.set("detect.snapshot_ms_p50", nsQuantile(detSnap, 0.5, 1e6), "ms")

	// Report: the live /report spans when the workload reads it;
	// otherwise the handler called directly on the live state.
	if len(reportDur) == 0 {
		h := report.HandlerWithDetect(st.agg, st.det, nil)
		for i := 0; i < snapshots; i++ {
			rr := httptest.NewRecorder()
			t := time.Now()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/report", nil))
			reportDur = append(reportDur, time.Since(t).Nanoseconds())
			reportBytes = append(reportBytes, int64(rr.Body.Len()))
		}
	}
	res.set("report.handler_ms_p50", nsQuantile(reportDur, 0.5, 1e6), "ms")
	res.set("report.bytes", nsQuantile(reportBytes, 0.5, 1), "bytes")
	return nil
}
