// Command perfbench is the repository benchmark: durable-ack ingest on
// the shipped qtag-server, binary batches beside /report reads, and the
// paper simulation. See README.md in this directory.
//
// Usage (from the repository root; run.sh builds everything first):
//
//	bash perfbench/run.sh --workload tag-beacons --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of the traced in-process
// run with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// env locates the benchmark's scratch space in the checkout.
type env struct {
	work      string // removed when the run ends
	out       string // .bench_build: binaries, logs, span dumps
	serverBin string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// unbounded holds figures printed for the reader but left out of the
	// result line: their run-to-run spread on the reference box is wider
	// than any bound BENCHMARK.json may set (see README.md).
	unbounded map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) setUnbounded(name string, v float64, unit string) {
	if r.unbounded == nil {
		r.unbounded = map[string]metric{}
	}
	r.unbounded[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload: tag-beacons or mirror-batches")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced in-process stack and prints per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	gen := flag.String("gen", "", "generator mode (internal): drive -url with this phase's traffic")
	genURL := flag.String("url", "", "generator mode: server URL")
	genDur := flag.Duration("gen-duration", 0, "generator mode: phase duration")
	genOut := flag.String("out", "", "generator mode: report file")
	flag.Parse()

	if *gen != "" {
		if err := runGenerator(*gen, *genURL, *seed, *genDur, *genOut); err != nil {
			fatal(err)
		}
		return
	}

	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	out := filepath.Join(abs, ".bench_build")
	e := &env{out: out, serverBin: filepath.Join(out, "qtag-server")}
	if e.work, err = os.MkdirTemp(out, "work-"); err != nil {
		fatal(err)
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(e, w, *seed, budget)
	} else {
		res, err = runEndToEnd(e, w, *seed, budget)
	}
	_ = os.RemoveAll(e.work)
	var gate *gateError
	if err != nil && !errors.As(err, &gate) {
		fatal(err)
	}
	if gate != nil {
		fmt.Println("GATE FAILED:", gate.msg)
		res.Correct = false
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func printResult(r *result) {
	printMetrics("unbounded (printed only):", r.unbounded)
	printMetrics("metrics:", r.Metrics)
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func printMetrics(title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	fmt.Println(title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// runEndToEnd is the untraced run: the ack path out of process, with one
// in-process simulation after each round while the server is idle.
func runEndToEnd(e *env, w workloadSpec, seed uint64, budget time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var sims []*simResult
	var simGate error
	ack, err := runAckPath(e, w, seed, budget, func() error {
		sim, err := runSim(seed, simImpressions, nil)
		if err != nil {
			return err
		}
		printSim(sim)
		sims = append(sims, sim)
		if err := checkSim(sim); err != nil && simGate == nil {
			simGate = &gateError{"paper-sim gate: " + err.Error()}
		}
		return nil
	})
	var gate *gateError
	if err != nil && !errors.As(err, &gate) {
		return nil, err
	}
	printAck(w, ack)
	res.Attempted, res.Failed = ack.attempted, ack.failed

	// Per-round figures; each metric is the median over the rounds.
	// A round has too few batches and reads for a p99 of its own; those
	// tails pool the rounds.
	var bp50, bp99, ingest, tp50, rp50, cpu []float64
	var batches, reports []outcome
	for _, r := range ack.rounds {
		b := newDist(latencies(r.beacons))
		bp50, bp99 = append(bp50, b.p50()), append(bp99, b.p99())
		var events int
		for _, o := range r.batches {
			events += o.events
		}
		ingest = append(ingest, float64(events)/r.batchSeconds)
		tp50 = append(tp50, newDist(latencies(r.batches)).p50())
		batches = append(batches, r.batches...)
		rp50 = append(rp50, newDist(latencies(r.reports)).p50())
		reports = append(reports, r.reports...)
		cpu = append(cpu, float64(r.serverCPU[w.primary])/float64(time.Microsecond)/float64(r.phaseEvents[w.primary]))
	}
	res.setUnbounded("error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "fraction")
	res.set("setup_s", median(ack.setup), "s")
	res.setUnbounded("beacon_p50_ms", median(bp50), "ms")
	res.setUnbounded("beacon_p99_ms", median(bp99), "ms")
	res.setUnbounded("beacon_max_eps", ack.maxEPS, "beacons/s")
	res.setUnbounded("ingest_eps", median(ingest), "events/s")
	res.setUnbounded("batch_p50_ms", median(tp50), "ms")
	res.setUnbounded("batch_p99_ms", newDist(latencies(batches)).p99(), "ms")
	res.set("report_p50_ms", median(rp50), "ms")
	res.setUnbounded("report_p99_ms", newDist(latencies(reports)).p99(), "ms")
	res.setUnbounded("server_cpu_us_per_event", median(cpu), "us/event")
	res.set("server_peak_rss_mb", ack.peakRSSMB, "MB")

	var wall, rate, heap []float64
	for _, sim := range sims {
		res.Attempted++
		wall = append(wall, sim.wall.Seconds())
		rate = append(rate, float64(sim.impressions)/sim.cpu.Seconds())
		heap = append(heap, sim.peakHeapMB)
	}
	res.set("sim_imps_per_cpu_s", median(rate), "imps/cpu-s")
	res.set("sim_wall_s", median(wall), "s")
	res.set("sim_peak_heap_mb", median(heap), "MB")
	if simGate != nil {
		res.Failed++
		return res, simGate
	}
	if gate != nil {
		return res, gate
	}
	fmt.Println("gates: ingest recovery ok, paper-sim ok")
	return res, nil
}

func printAck(w workloadSpec, a *ackResult) {
	fmt.Printf("workload %s: qtag-server %v detect=%v prefill=%d\n", w.name, pinnedFlags, w.detect, w.prefill)
	fmt.Printf("setup: boots %v s\n", a.setup)
	for i, r := range a.rounds {
		fmt.Printf("round %d: beacons @%.0f/s: %s\n", i+1, refRate, newDist(latencies(r.beacons)))
		fmt.Printf("round %d: batches: %s over %.2fs; reports: %s\n", i+1,
			newDist(latencies(r.batches)), r.batchSeconds, newDist(latencies(r.reports)))
		for _, phase := range []string{"beacons", "batches"} {
			fmt.Printf("round %d: server cpu %s: %v for %d events\n", i+1, phase, r.serverCPU[phase], r.phaseEvents[phase])
		}
	}
	for _, v := range a.steps {
		fmt.Println("  search:", v)
	}
	fmt.Printf("beacon_max_eps: %.0f\n", a.maxEPS)
	fmt.Printf("loadgen cpu: %v (server cpu reported apart)\n", a.loadgenCPU)
}

func printSim(s *simResult) {
	fmt.Printf("paper-sim: %d impressions, %d beacons, wall %v, cpu %v\n", s.impressions, s.beacons, s.wall, s.cpu)
	for _, f := range s.fig {
		fmt.Println("  figure3:", f)
	}
	for _, c := range s.table {
		fmt.Println("  table2:", c)
	}
}
