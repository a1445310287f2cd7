// Command qtag-stress runs the Q-Tag stress harnesses.
//
// Default mode — randomized lab scenarios with a differential check of
// the tag's verdict against a tolerance-bracketed ground-truth oracle:
//
//	qtag-stress [-n 1000] [-seed 2019] [-v]
//
// Load mode — a concurrent load generator for the ingest server. With
// -url it drives an already-running server; without, it boots the full
// in-process ingest stack (sharded store + WAL) itself:
//
//	qtag-stress -load [-workers 8] [-events 20000] [-batch 1]
//	            [-url http://host:8080] [-shards 16] [-wal-dir DIR]
//	            [-fsync always] [-group-commit] [-sync-durability]
//	            [-binary]
//
// Bench mode — the PR acceptance benchmark: fsync=always synchronous
// durability at {1 shard, no group commit} vs {4, 16 shards with group
// commit}, plus the forwarding rung (two-node cluster), the tracing
// rungs (distributed tracing at 1% and 100% head sampling), the
// overload rung (admission-controlled stack at 10× concurrency) and
// the binary-codec rungs (compact wire format at 1 and 16 shards,
// with codec microbench allocation counts), written to a JSON report:
//
//	qtag-stress -load -bench-out BENCH_PR10.json [-workers 8] [-events 5000]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"qtag/internal/collector"
	"qtag/internal/stress"
	"qtag/internal/wal"
)

func main() {
	n := flag.Int("n", 1000, "number of random scenarios")
	seed := flag.Uint64("seed", 2019, "scenario seed")
	verbose := flag.Bool("v", false, "print mismatching scenarios")

	load := flag.Bool("load", false, "run the ingest load generator instead of lab scenarios")
	url := flag.String("url", "", "load: target base URL (default: boot an in-process server)")
	workers := flag.Int("workers", 8, "load: concurrent client goroutines")
	events := flag.Int("events", 20000, "load: total events to send")
	batch := flag.Int("batch", 1, "load: events per POST request")
	shards := flag.Int("shards", 16, "load: store shard count for the in-process server")
	walDir := flag.String("wal-dir", "", "load: WAL directory for the in-process server (empty: memory only)")
	fsyncMode := flag.String("fsync", "always", "load: WAL fsync policy (always|batch|interval)")
	groupCommit := flag.Bool("group-commit", true, "load: coalesce WAL fsyncs across concurrent requests")
	gcMaxBatch := flag.Int("group-commit-max-batch", 256, "load: max records per group commit")
	gcMaxWait := flag.Duration("group-commit-max-wait", 0, "load: how long to hold a group open to grow it")
	syncDur := flag.Bool("sync-durability", true, "load: ack requests only after fsync (WAL on the request path)")
	binary := flag.Bool("binary", false, "load: post the compact binary beacon codec instead of JSON")
	benchOut := flag.String("bench-out", "", "load: run the shard-scaling benchmark and write the JSON report here")
	benchReps := flag.Int("bench-reps", 3, "load: repetitions per bench configuration (best run is reported)")
	flag.Parse()

	if *load {
		if *benchOut != "" {
			if err := runBench(*benchOut, *workers, *events, *batch, *gcMaxBatch, *gcMaxWait, *benchReps); err != nil {
				fmt.Fprintln(os.Stderr, "FAIL:", err)
				os.Exit(1)
			}
			return
		}
		if err := runLoad(*url, *workers, *events, *batch, *shards, *walDir, *fsyncMode,
			*groupCommit, *gcMaxBatch, *gcMaxWait, *syncDur, *binary); err != nil {
			fmt.Fprintln(os.Stderr, "FAIL:", err)
			os.Exit(1)
		}
		return
	}

	b := stress.RunBatch(*n, *seed)
	fmt.Println(b)
	if *verbose {
		for _, m := range b.Mismatches {
			fmt.Printf("  tag=%v strict=%v nominal=%v lenient=%v adY=%.0f video=%v steps=%d\n",
				m.TagInView, m.OracleStrict, m.OracleNom, m.OracleLen,
				m.Scenario.AdY, m.Scenario.Video, len(m.Scenario.Steps))
		}
	}
	if b.Mismatch > 0 {
		fmt.Fprintln(os.Stderr, "FAIL: the tag contradicted a robust ground truth")
		os.Exit(1)
	}
	fmt.Println("PASS: no mismatches on robust scenarios")
}

func runLoad(url string, workers, events, batchSize, shards int, walDir, fsyncMode string,
	groupCommit bool, gcMaxBatch int, gcMaxWait time.Duration, syncDur, binary bool) error {
	target := url
	if target == "" {
		policy, err := wal.ParseFsyncPolicy(fsyncMode)
		if err != nil {
			return err
		}
		srv, err := stress.StartIngestServer(collector.Config{
			Shards: shards,
			WAL: wal.Options{
				Dir:                 walDir,
				Fsync:               policy,
				GroupCommit:         groupCommit,
				GroupCommitMaxBatch: gcMaxBatch,
				GroupCommitMaxWait:  gcMaxWait,
			},
			DurableSync: syncDur && walDir != "",
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		target = srv.URL
		fmt.Printf("in-process server at %s (shards=%d wal=%q fsync=%s group-commit=%v sync-durability=%v)\n",
			target, shards, walDir, fsyncMode, groupCommit, syncDur)
	}
	rep, err := stress.RunLoad(target, stress.LoadOptions{
		Workers: workers, Events: events, BatchSize: batchSize, Seed: 2019, Binary: binary,
	})
	fmt.Println(rep)
	if err != nil {
		return err
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d requests errored", rep.Errors)
	}
	return nil
}

// runBench runs the shard-scaling ladder (stress.RunBenchLadder) and
// writes the JSON report — the PR acceptance measurement.
func runBench(outPath string, workers, events, batchSize, gcMaxBatch int, gcMaxWait time.Duration, reps int) error {
	// The harness and server share this process (and often one core); a
	// default-tuned GC would tax every configuration's measured run.
	// Applied once, before any case, so all rows pay the same rules.
	debug.SetGCPercent(400)
	rep, err := stress.RunBenchLadder(stress.BenchOptions{
		Workers:             workers,
		Events:              events,
		BatchSize:           batchSize,
		Reps:                reps,
		GroupCommitMaxBatch: gcMaxBatch,
		GroupCommitMaxWait:  gcMaxWait,
		MinSpeedup16:        3,
		MinBinarySpeedup:    3,
		Out:                 os.Stdout,
	})
	if len(rep.Entries) == stress.LadderRungs { // a complete ladder is worth recording even if the floor failed
		if werr := rep.WriteJSON(outPath); werr != nil && err == nil {
			err = werr
		}
		fmt.Printf("report: %s\n", outPath)
	}
	return err
}
