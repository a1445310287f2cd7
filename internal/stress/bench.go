package stress

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"qtag/internal/admission"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/collector"
	"qtag/internal/obs"
	"qtag/internal/wal"
)

// BenchOptions configures RunBenchLadder.
type BenchOptions struct {
	// Workers / Events / BatchSize are passed to every RunLoad call.
	Workers   int
	Events    int
	BatchSize int
	// Reps runs each configuration this many times and reports the best
	// run — peak capability under identical conditions, insulated from
	// scheduler noise on shared hardware. Default 1.
	Reps int
	// GroupCommitMaxBatch / GroupCommitMaxWait tune the committer in the
	// group-commit configurations.
	GroupCommitMaxBatch int
	GroupCommitMaxWait  time.Duration
	// MinSpeedup16 fails the ladder when the 16-shard row's throughput is
	// below this multiple of the 1-shard row (0 = report only).
	MinSpeedup16 float64
	// MinBinarySpeedup fails the ladder when the binary 16-shard row's
	// throughput is below this multiple of the JSON 1-shard seed row
	// (0 = report only). This is the codec acceptance bar: the compact
	// wire format plus shard scaling must clear it together.
	MinBinarySpeedup float64
	// Out receives one progress line per configuration (nil = silent).
	Out io.Writer
}

// BenchEntry is one row of the ladder report.
type BenchEntry struct {
	Shards      int     `json:"shards"`
	GroupCommit bool    `json:"group_commit"`
	Forwarding  bool    `json:"forwarding,omitempty"`
	TraceSample float64 `json:"trace_sample,omitempty"`
	// Overload marks the admission rung: 10× the ladder's standard
	// concurrency against an admission-controlled server whose limit
	// ceiling is pinned at the standard concurrency. Eps is then
	// goodput (accepted work), and ShedRate the fraction of requests
	// answered 503.
	Overload bool    `json:"overload,omitempty"`
	ShedRate float64 `json:"shed_rate,omitempty"`
	// Binary marks the rungs that post the compact binary beacon codec
	// instead of JSON.
	Binary bool    `json:"binary,omitempty"`
	Eps    float64 `json:"throughput_eps"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// AllocsPerEvent is the whole-process heap-allocation count divided
	// by accepted events for the best run of this rung — load generator
	// and in-process server combined, so it is a coarse end-to-end
	// number, not the per-decode figure (the codec microbenches report
	// that exactly).
	AllocsPerEvent float64 `json:"allocs_per_event"`
	Accepted       int64   `json:"accepted"`
	DurationSec    float64 `json:"duration_sec"`
}

// BenchConfig records the knobs a report was measured under.
type BenchConfig struct {
	Workers   int    `json:"workers"`
	Events    int    `json:"events"`
	BatchSize int    `json:"batch_size"`
	Fsync     string `json:"fsync"`
	SyncDur   bool   `json:"sync_durability"`
	Reps      int    `json:"reps"`
}

// BenchLadderReport is the full shard-scaling measurement.
type BenchLadderReport struct {
	Config       BenchConfig  `json:"config"`
	Entries      []BenchEntry `json:"entries"`
	Speedup4Vs1  float64      `json:"speedup_4_vs_1"`
	Speedup16Vs1 float64      `json:"speedup_16_vs_1"`
	// TraceOverhead1Pct / TraceOverhead100Pct are the fractional
	// throughput cost of distributed tracing at 1% and 100% head
	// sampling versus the identical untraced 16-shard rung (0.03 =
	// 3% slower). Negative values are run-to-run noise.
	TraceOverhead1Pct   float64 `json:"trace_overhead_1pct"`
	TraceOverhead100Pct float64 `json:"trace_overhead_100pct"`
	// BinarySpeedup1Vs1 / BinarySpeedup16Vs1 compare the binary-codec
	// rungs against the JSON 1-shard seed row: the first isolates the
	// codec (same single-shard stack, different wire format), the second
	// is codec plus shard scaling — the acceptance number gated by
	// MinBinarySpeedup. BinaryVsJSON16 compares the binary 16-shard rung
	// against its JSON twin, isolating the codec at scale.
	BinarySpeedup1Vs1  float64 `json:"binary_speedup_1_vs_1"`
	BinarySpeedup16Vs1 float64 `json:"binary_speedup_16_vs_1"`
	BinaryVsJSON16     float64 `json:"binary_vs_json_16"`
	// Codec holds the beacon-codec microbenchmarks (testing.Benchmark
	// runs, -benchmem style) published next to the ladder so allocation
	// regressions are visible in the same artifact as throughput.
	Codec []CodecBenchEntry `json:"codec"`
}

// CodecBenchEntry is one codec microbenchmark row.
type CodecBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// LadderRungs is the number of rows RunBenchLadder measures; consumers
// (the CLI, the regression gate) use it to detect a truncated report.
const LadderRungs = 9

// RunBenchLadder measures ingest throughput with the WAL on the request
// path (fsync=always, sync durability) across the shard/group-commit
// ladder: the 1-shard no-group-commit row is the seed per-record-fsync
// behavior, the 4- and 16-shard group-commit rows are the scaled ingest
// path, and the forwarding row repeats the 16-shard configuration with
// a two-node cluster in front (about half the events forward to a peer
// before acking) to price the peer-routing overhead. The tracing rows
// repeat the 16-shard configuration with distributed tracing at 1% and
// 100% head sampling to price the observability tax, and the overload
// row drives the admission-controlled stack at 10× concurrency to price
// goodput and shed rate past the knee. Every row uses a fresh WAL
// directory and a fresh in-process server; numbers are measured, never
// modeled.
func RunBenchLadder(opts BenchOptions) (BenchLadderReport, error) {
	var rep BenchLadderReport
	o := LoadOptions{Workers: opts.Workers, Events: opts.Events, BatchSize: opts.BatchSize, Seed: 2019}.withDefaults()
	reps := opts.Reps
	if reps < 1 {
		reps = 1
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	rep.Config = BenchConfig{
		Workers:   o.Workers,
		Events:    o.Events,
		BatchSize: o.BatchSize,
		Fsync:     "always",
		SyncDur:   true,
		Reps:      reps,
	}

	tmpRoot, err := os.MkdirTemp("", "qtag-bench-")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(tmpRoot)

	cases := []struct {
		shards     int
		gc         bool
		forwarding bool
		trace      float64
		overload   bool
		binary     bool
	}{
		{1, false, false, 0, false, false}, // the seed: single lock, one fsync per record
		{4, true, false, 0, false, false},
		{16, true, false, 0, false, false},
		// The cluster tax: same stack, but the loaded node owns only
		// ~half the ring — the rest forwards over HTTP to a second
		// full-durability node before acking.
		{16, true, true, 0, false, false},
		// The tracing tax: the scaled ingest rung with distributed
		// tracing enabled at production (1%) and worst-case (100%)
		// head sampling — every request roots a span either way; the
		// rate decides how many are recorded into the ring.
		{16, true, false, 0.01, false, false},
		{16, true, false, 1.0, false, false},
		// The overload rung (informational): the scaled configuration
		// fronted by the admission controller, driven at 10× the ladder's
		// standard concurrency with the concurrency ceiling pinned at the
		// standard worker count. Prices goodput, shed rate and p99 under a
		// sustained ramp instead of pretending overload cannot happen.
		{16, true, false, 0, true, false},
		// The codec rungs: the seed row and the scaled row repeated with
		// the compact binary wire format. Binary-vs-1-shard-JSON is the
		// acceptance number (MinBinarySpeedup); binary-vs-16-shard-JSON
		// isolates the codec itself at scale.
		{1, false, false, 0, false, true},
		{16, true, false, 0, false, true},
	}
	if len(cases) != LadderRungs {
		return rep, fmt.Errorf("ladder defines %d rungs, LadderRungs says %d", len(cases), LadderRungs)
	}
	for i, c := range cases {
		var best LoadReport
		var bestAllocs float64
		for r := 0; r < reps; r++ {
			base := collector.Config{
				Shards: c.shards,
				WAL: wal.Options{
					Dir:                 filepath.Join(tmpRoot, fmt.Sprintf("wal-%d-%d", i, r)),
					Fsync:               wal.FsyncAlways,
					GroupCommit:         c.gc,
					GroupCommitMaxBatch: opts.GroupCommitMaxBatch,
					GroupCommitMaxWait:  opts.GroupCommitMaxWait,
				},
				DurableSync: true,
				Trace:       obs.TracerConfig{SampleRate: c.trace},
			}
			if c.overload {
				// Pin the ceiling at the standard worker count so the 10×
				// ramp below is guaranteed past the knee.
				base.Admission = &admission.Config{Limiter: admission.LimiterConfig{
					MinLimit:     o.Workers / 2,
					MaxLimit:     o.Workers,
					InitialLimit: o.Workers,
				}}
			}
			var peer *IngestServer
			if c.forwarding {
				peerCfg := base
				peerCfg.WAL.Dir = filepath.Join(tmpRoot, fmt.Sprintf("wal-%d-%d-peer", i, r))
				p, err := StartIngestServer(peerCfg)
				if err != nil {
					return rep, err
				}
				peer = p
				base.NodeID = "bench-a"
				base.Cluster = &cluster.Config{
					Peers:      map[string]string{"bench-b": peer.URL},
					HandoffDir: filepath.Join(tmpRoot, fmt.Sprintf("hints-%d-%d", i, r)),
				}
			}
			srv, err := StartIngestServer(base)
			if err != nil {
				if peer != nil {
					peer.Close()
				}
				return rep, err
			}
			lo := LoadOptions{
				Workers: o.Workers, Events: o.Events, BatchSize: o.BatchSize, Seed: 2019,
				Binary: c.binary,
			}
			if c.overload {
				lo.Workers = o.Workers * 10
				lo.TolerateShed = true
			}
			var msBefore, msAfter runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&msBefore)
			lr, err := RunLoad(srv.URL, lo)
			runtime.ReadMemStats(&msAfter)
			cerr := srv.Close()
			if peer != nil {
				if perr := peer.Close(); cerr == nil {
					cerr = perr
				}
			}
			if err != nil {
				return rep, fmt.Errorf("shards=%d: %w", c.shards, err)
			}
			if cerr != nil {
				return rep, fmt.Errorf("shards=%d close: %w", c.shards, cerr)
			}
			// The overload rung sheds by design, so accepted < Events is
			// its expected outcome — but it must still accept something
			// and stay error-free.
			if lr.Errors > 0 {
				return rep, fmt.Errorf("shards=%d: dirty run: %s", c.shards, lr)
			}
			if c.overload {
				if lr.Accepted == 0 {
					return rep, fmt.Errorf("overload rung accepted nothing: %s", lr)
				}
			} else if lr.Accepted != int64(o.Events) {
				return rep, fmt.Errorf("shards=%d: dirty run: %s", c.shards, lr)
			}
			if lr.Eps > best.Eps {
				best = lr
				if lr.Accepted > 0 {
					bestAllocs = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(lr.Accepted)
				}
			}
		}
		fmt.Fprintf(out, "shards=%-2d group-commit=%-5v forwarding=%-5v trace=%-4v overload=%-5v binary=%-5v  %s\n",
			c.shards, c.gc, c.forwarding, c.trace, c.overload, c.binary, best)
		entryShedRate := 0.0
		if best.Requests > 0 {
			entryShedRate = float64(best.Shed) / float64(best.Requests)
		}
		rep.Entries = append(rep.Entries, BenchEntry{
			Shards:         c.shards,
			GroupCommit:    c.gc,
			Forwarding:     c.forwarding,
			TraceSample:    c.trace,
			Overload:       c.overload,
			Binary:         c.binary,
			ShedRate:       entryShedRate,
			Eps:            best.Eps,
			P50Ms:          float64(best.P50) / float64(time.Millisecond),
			P99Ms:          float64(best.P99) / float64(time.Millisecond),
			AllocsPerEvent: bestAllocs,
			Accepted:       best.Accepted,
			DurationSec:    best.Duration.Seconds(),
		})
	}
	if base := rep.Entries[0].Eps; base > 0 {
		rep.Speedup4Vs1 = rep.Entries[1].Eps / base
		rep.Speedup16Vs1 = rep.Entries[2].Eps / base
	}
	// Price tracing against the identical untraced rung, and the binary
	// codec against its JSON twins.
	var untraced, traced1, traced100, binary1, binary16 float64
	for _, e := range rep.Entries {
		if e.Binary {
			switch e.Shards {
			case 1:
				binary1 = e.Eps
			case 16:
				binary16 = e.Eps
			}
			continue
		}
		if e.Shards == 16 && e.GroupCommit && !e.Forwarding && !e.Overload {
			switch e.TraceSample {
			case 0:
				untraced = e.Eps
			case 0.01:
				traced1 = e.Eps
			case 1.0:
				traced100 = e.Eps
			}
		}
	}
	if untraced > 0 {
		if traced1 > 0 {
			rep.TraceOverhead1Pct = 1 - traced1/untraced
		}
		if traced100 > 0 {
			rep.TraceOverhead100Pct = 1 - traced100/untraced
		}
	}
	fmt.Fprintf(out, "speedup: 4 shards %.2fx, 16 shards %.2fx vs 1 shard\n",
		rep.Speedup4Vs1, rep.Speedup16Vs1)
	fmt.Fprintf(out, "tracing overhead vs untraced 16-shard rung: %.1f%% at 1%% sampling, %.1f%% at 100%%\n",
		rep.TraceOverhead1Pct*100, rep.TraceOverhead100Pct*100)
	if base := rep.Entries[0].Eps; base > 0 {
		rep.BinarySpeedup1Vs1 = binary1 / base
		rep.BinarySpeedup16Vs1 = binary16 / base
	}
	if untraced > 0 {
		rep.BinaryVsJSON16 = binary16 / untraced
	}
	fmt.Fprintf(out, "binary codec: %.2fx vs JSON 1-shard (1 shard), %.2fx vs JSON 1-shard (16 shards), %.2fx vs JSON 16-shard\n",
		rep.BinarySpeedup1Vs1, rep.BinarySpeedup16Vs1, rep.BinaryVsJSON16)
	rep.Codec = MeasureCodec()
	for _, cb := range rep.Codec {
		fmt.Fprintf(out, "codec %-24s %10.1f ns/op %6d B/op %4d allocs/op\n",
			cb.Name, cb.NsPerOp, cb.BytesPerOp, cb.AllocsPerOp)
	}
	if opts.MinSpeedup16 > 0 && rep.Speedup16Vs1 < opts.MinSpeedup16 {
		return rep, fmt.Errorf("16-shard speedup %.2fx below the %.1fx floor",
			rep.Speedup16Vs1, opts.MinSpeedup16)
	}
	if opts.MinBinarySpeedup > 0 && rep.BinarySpeedup16Vs1 < opts.MinBinarySpeedup {
		return rep, fmt.Errorf("binary 16-shard speedup %.2fx over the JSON seed row is below the %.1fx floor",
			rep.BinarySpeedup16Vs1, opts.MinBinarySpeedup)
	}
	return rep, nil
}

// MeasureCodec runs the beacon-codec microbenchmarks in-process via
// testing.Benchmark and returns -benchmem style rows: the exact
// per-operation allocation counts the ladder's coarse AllocsPerEvent
// cannot give. The decode row uses the pooled alias decoder on a warm
// pool — the steady-state ingest path — and is expected to report zero
// allocations per op.
func MeasureCodec() []CodecBenchEntry {
	events := genEvents(0, 64, LoadOptions{Seed: 2019}.withDefaults())
	frame := beacon.AppendBinaryEvents(nil, events)
	single := beacon.AppendBinaryEvent(nil, events[0])
	rows := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"binary-encode-batch", func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = beacon.AppendBinaryEvents(buf[:0], events)
			}
		}},
		{"binary-decode-batch", func(b *testing.B) {
			var dec beacon.BatchDecoder
			if _, err := dec.Decode(frame); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"binary-decode-event", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := beacon.DecodeBinaryEvent(single); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"json-decode-batch", func(b *testing.B) {
			body, err := json.Marshal(events)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out []beacon.Event
				if err := json.Unmarshal(body, &out); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	out := make([]CodecBenchEntry, 0, len(rows))
	for _, r := range rows {
		res := testing.Benchmark(r.fn)
		out = append(out, CodecBenchEntry{
			Name:        r.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	return out
}

// WriteJSON writes the report, indented, to path.
func (r BenchLadderReport) WriteJSON(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
