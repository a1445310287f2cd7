package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/wal"
)

// Ack-path load constants.
const (
	senders = 2      // sending goroutines and connections (nproc on the reference box)
	refRate = 1500.0 // beacons/s: the fixed reference rate, about a third of beacon_max_eps
	// p99Limit is the beacon latency limit for beacon_max_eps. On the
	// reference box the WAL's fsync tail alone puts p99 at 5-30 ms from a
	// quarter of capacity up, so a tighter limit would measure disk-stall
	// luck; 50 ms sits at the queueing knee, where p99 climbs steeply.
	p99Limit  = 50 * time.Millisecond
	lateLimit = time.Millisecond // generator lateness past which a rate step is invalid
	// The rate search bisects a geometric grid of offered rates from
	// gridBase upward in steps of gridStep: 4% resolution, finer than
	// beacon_max_eps's bound.
	gridBase  = 500.0
	gridStep  = 1.04
	gridSize  = 90
	fillBatch = 256 // events per SubmitBatch when pre-filling a WAL
	// stepGiveUp abandons a search step's requests once they are this far
	// behind schedule: the step has failed by then, and draining its whole
	// queue would only lengthen the run.
	stepGiveUp = 250 * time.Millisecond
)

// workloadSpec is what distinguishes the ack-path workloads: the
// collector's state and configuration when traffic starts.
type workloadSpec struct {
	name    string
	detect  bool // run qtag-server with -detect
	prefill int  // events journaled before boot (replayed at every boot)
	boots   int  // boots timed for setup_s
	// primary names the phase whose traffic defines the workload; its
	// server CPU per event is server_cpu_us_per_event.
	primary string
}

var workloads = map[string]workloadSpec{
	"tag-beacons":    {name: "tag-beacons", detect: false, prefill: 0, boots: 7, primary: "beacons"},
	"mirror-batches": {name: "mirror-batches", detect: true, prefill: 250_000, boots: 3, primary: "batches"},
}

// gridRate is the k-th offered rate of the search grid.
func gridRate(k int) float64 { return gridBase * math.Pow(gridStep, float64(k)) }

// stepVerdict is one rate step's judgement.
type stepVerdict struct {
	rate     float64 // offered beacons/s
	goodput  float64 // acknowledged beacons/s
	p99      float64 // ms, failures counted as misses
	lateP99  float64 // ms
	failed   int
	backlog  bool // queueing delay still above the limit at the end of the step
	invalid  bool // the generator itself fell behind
	pass     bool
	requests int
}

func (v stepVerdict) String() string {
	state := "pass"
	switch {
	case v.invalid:
		state = "INVALID (generator behind)"
	case !v.pass:
		state = "slow"
	}
	return fmt.Sprintf("offered %7.0f/s goodput %7.0f/s p99 %7.3fms late p99 %.3fms failed %d backlog %v n=%d: %s",
		v.rate, v.goodput, v.p99, v.lateP99, v.failed, v.backlog, v.requests, state)
}

// judgeStep applies the latency limit to one open-loop step. A failed
// request counts as a miss; a step whose queueing delay is still above
// the limit at its end has a growing backlog; a step whose generator ran
// late is invalid rather than slow.
func judgeStep(rate float64, outs []outcome) stepVerdict {
	v := stepVerdict{rate: rate, requests: len(outs)}
	if len(outs) == 0 {
		return v
	}
	lat := newDist(latencies(outs))
	late := make([]time.Duration, len(outs))
	var acked int
	var last time.Duration
	for i, o := range outs {
		late[i] = o.late
		switch {
		case o.ok:
			acked++
		case o.skipped:
			v.backlog = true
		default:
			v.failed++
		}
		last = max(last, o.end)
	}
	// With enough samples the probe's p99 is the median over windows of
	// it, so a lone disk stall cannot fail a rate the collector sustains;
	// a real overload fails every window.
	v.p99 = lat.p99()
	if n := min(5, len(outs)/windowSamples); n >= 3 {
		v.p99 = median(windowP99s(outs, n))
	}
	v.lateP99 = newDist(late).p99()
	if last > 0 {
		v.goodput = float64(acked) / last.Seconds()
	}
	tail := outs[len(outs)*3/4:]
	queued := make([]time.Duration, len(tail))
	for i, o := range tail {
		queued[i] = o.start - o.due
	}
	v.backlog = v.backlog || newDist(queued).p50() > float64(p99Limit)/float64(time.Millisecond)
	v.invalid = v.lateP99 > float64(lateLimit)/float64(time.Millisecond)
	v.pass = !v.invalid && v.failed == 0 && !v.backlog && v.p99 <= float64(p99Limit)/float64(time.Millisecond)
	return v
}

// searchMaxRate bisects the rate grid for the highest offered rate whose
// step passes, calling try for each probed grid index. It always ends
// after at most ceil(log2(gridSize+1)) probes and returns -1 when no
// grid rate passes.
func searchMaxRate(try func(k int) bool) int {
	lo, hi := -1, gridSize // lo passes (vacuously at -1), hi fails (assumed)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// fillWAL journals n generated events into dir through the program's own
// durable journal, the way a long-running collector would have, and adds
// them to refs.
func fillWAL(dir string, seed uint64, n int, refs ...*reference) error {
	store := beacon.NewStore()
	wj, _, err := beacon.OpenDurable(wal.Options{Dir: dir, SegmentBytes: 8 << 20, Fsync: wal.FsyncOnBatch}, store)
	if err != nil {
		return fmt.Errorf("open fill wal: %w", err)
	}
	s := newStream(seed, "f")
	for left := n; left > 0; left -= fillBatch {
		events := s.take(min(fillBatch, left))
		if err := wj.SubmitBatch(events); err != nil {
			wj.Close()
			return fmt.Errorf("fill wal: %w", err)
		}
		for _, r := range refs {
			r.add(events)
		}
	}
	return wj.Close()
}

// roundResult is one round of the reference-rate and batch phases.
type roundResult struct {
	beacons      []outcome
	batches      []outcome
	batchSeconds float64
	reports      []outcome
	serverCPU    map[string]time.Duration // per phase
	phaseEvents  map[string]int
}

// ackResult collects one ack-path run's end-to-end figures.
type ackResult struct {
	setup      []float64 // seconds per timed boot
	rounds     []roundResult
	steps      []stepVerdict
	maxEPS     float64 // goodput of the highest passing probe
	peakRSSMB  float64
	loadgenCPU time.Duration
	attempted  int
	failed     int
}

// Phase lengths as shares of --seconds. Phases 1 and 2 run in rounds,
// so a transient disturbance of the shared machine lands in one round
// and the per-round medians shed it.
const (
	rounds        = 6
	beaconShare   = 4 // % per round: phase 1
	batchShare    = 6 // % per round: phase 2
	probeShare    = 3 // % per rate-search probe
	roundPauseFor = 200 * time.Millisecond
)

// runAckPath measures the shipped qtag-server out of process: rounds of
// phases 1 and 2 (calling afterRound after each, with the server idle),
// then the rate search, then the recovery gate.
func runAckPath(e *env, w workloadSpec, seed uint64, budget time.Duration, afterRound func() error) (*ackResult, error) {
	res := &ackResult{}
	lo, hi := newReference(), newReference()
	state := filepath.Join(e.work, "state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	if w.prefill > 0 {
		if err := fillWAL(state, seed, w.prefill, lo, hi); err != nil {
			return nil, err
		}
	}
	// setup_s: exec to /readyz 200 on a fresh copy of the same WAL, several
	// times; the last boot serves the run.
	var srv *serverProc
	var walDir string
	for k := 0; k < w.boots; k++ {
		walDir = filepath.Join(e.work, fmt.Sprintf("boot-%d", k))
		if err := copyDir(state, walDir); err != nil {
			return nil, err
		}
		p, d, err := startServer(e.serverBin, walDir, walDir+".log", w.detect)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d.Seconds())
		if k < w.boots-1 {
			p.kill()
		} else {
			srv = p
		}
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	var genCPU time.Duration
	record := func(outs []outcome, reqs []request) {
		for i, o := range outs {
			if o.skipped {
				continue
			}
			res.attempted++
			hi.add(reqs[i].events)
			if o.ok {
				lo.add(reqs[i].events)
			} else {
				res.failed++
			}
		}
	}
	// measure runs fn, adding the server's CPU time over it to cpu[phase]
	// and the generator's to genCPU.
	measure := func(cpu map[string]time.Duration, phase string, fn func()) error {
		c0, err := srv.cpu()
		if err != nil {
			return err
		}
		g0 := selfCPU()
		fn()
		genCPU += selfCPU() - g0
		c1, err := srv.cpu()
		if err != nil {
			return err
		}
		cpu[phase] += c1 - c0
		return nil
	}

	bs := newStream(seed, "b")
	rng := rand.New(rand.NewPCG(seed, hashString("arrivals")))
	src := newBatchSource(seed, "m")
	id := 0
	for r := 0; r < rounds; r++ {
		rr := roundResult{serverCPU: map[string]time.Duration{}, phaseEvents: map[string]int{}}
		// Phase 1: single JSON beacons, open loop at the reference rate.
		reqs := beaconSchedule(bs, rng, refRate, budget*beaconShare/100)
		if err := measure(rr.serverCPU, "beacons", func() {
			rr.beacons = runOpen(srv.url, reqs, senders, id, 0)
		}); err != nil {
			return nil, err
		}
		record(rr.beacons, reqs)
		id += len(reqs)
		rr.phaseEvents["beacons"] = len(reqs)
		time.Sleep(roundPauseFor)

		// Phase 2: binary 64-event batches, closed loop, with /report read
		// beside on the second connection.
		poll := startPoller(srv.url)
		var sent []request
		t0 := time.Now()
		if err := measure(rr.serverCPU, "batches", func() {
			rr.batches, sent = runClosed(srv.url, src, budget*batchShare/100, id)
		}); err != nil {
			poll.finish()
			return nil, err
		}
		rr.batchSeconds = time.Since(t0).Seconds()
		rr.reports = poll.finish()
		record(rr.batches, sent)
		id += len(sent)
		for _, o := range rr.batches {
			rr.phaseEvents["batches"] += o.events
		}
		for _, o := range rr.reports {
			res.attempted++
			if !o.ok {
				res.failed++
			}
		}
		res.rounds = append(res.rounds, rr)
		if afterRound != nil {
			if err := afterRound(); err != nil {
				return nil, err
			}
		}
		time.Sleep(roundPauseFor)
	}
	// Peak memory is read before the rate search, whose traffic volume
	// depends on where the search ends.
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.peakRSSMB = rss

	// Phase 3: the rate search for beacon_max_eps.
	stepDur := time.Duration(float64(budget) * probeShare / 100)
	// Bisection only moves up past a pass, so the last passing probe is
	// the highest.
	searchMaxRate(func(k int) bool {
		// A failed probe is tried once more: a slow second of the shared
		// machine can fail a probe at any rate, while a rate past the knee
		// fails both.
		for try := 0; try < 2; try++ {
			time.Sleep(roundPauseFor) // let the previous probe's queue drain
			reqs := beaconSchedule(bs, rng, gridRate(k), stepDur)
			g0 := selfCPU()
			outs := runOpen(srv.url, reqs, senders, id, stepGiveUp)
			genCPU += selfCPU() - g0
			id += len(reqs)
			record(outs, reqs)
			v := judgeStep(gridRate(k), outs)
			res.steps = append(res.steps, v)
			if v.pass {
				res.maxEPS = v.goodput
				return true
			}
		}
		return false
	})
	res.loadgenCPU = genCPU

	// Ingest gate: SIGKILL, reboot on the same WAL, and require the
	// recovered /report to hold exactly what was acknowledged.
	srv.kill()
	srv = nil
	p, _, err := startServer(e.serverBin, walDir, walDir+".reboot.log", w.detect)
	if err != nil {
		return nil, fmt.Errorf("reboot after SIGKILL: %w", err)
	}
	srv = p
	got, err := fetchReport(srv.url)
	if err != nil {
		return nil, err
	}
	events, err := fetchStoreEvents(srv.url)
	if err != nil {
		return nil, err
	}
	if err := checkRecovered(got, events, lo, hi); err != nil {
		return res, &gateError{fmt.Sprintf("ingest recovery gate: %v", err)}
	}
	return res, nil
}

// gateError is a correctness-gate failure: the run measured, but the
// program's output was wrong.
type gateError struct{ msg string }

func (g *gateError) Error() string { return g.msg }
