// Command qtag-server runs the Q-Tag beacon collection server — the
// "monitoring server" of the paper's §3 — as a standalone HTTP service.
//
// Endpoints:
//
//	POST /v1/events               ingest one event or a batch (JSON, or
//	                              application/x-qtag-binary)
//	GET  /v1/stats                global measured/viewability rates
//	GET  /v1/campaigns/{id}/stats per-campaign rates
//	GET  /v1/breakdown, /v1/timeseries  paper Table 2 / Figure 3 slices
//	GET  /report                  streaming campaign viewability report
//	                              (?format=prom; ?federated=1 in cluster
//	                              mode merges every reachable node)
//	GET  /metrics                 Prometheus text-format metrics
//	GET  /healthz                 liveness: 200 from the moment the
//	                              socket binds, WAL boot replay included
//	GET  /readyz                  readiness: 503 during boot replay,
//	                              under hint backlog or while admission
//	                              control has the node browned out
//	GET  /debug/traces            recent traces (only with -trace-sample)
//	GET  /debug/pprof/*           profiling (only with -pprof)
//
// The server binds first and answers /healthz while the WAL (-wal-dir)
// replays, then swaps in the full stack assembled by internal/collector
// (DESIGN.md §18). Every event lands in the sharded in-memory store
// synchronously and is journaled asynchronously through a queue; with
// -durable-sync a POST is acknowledged only once its events are in the
// WAL (-fsync always: fsynced), and -group-commit shares each fsync
// among concurrent requests.
//
// Admission control (DESIGN.md §14) is always on: an adaptive
// concurrency limiter sheds lower-priority requests first with 503 +
// Retry-After, requests whose X-Qtag-Budget-Ms cannot be met get 408,
// -shed-pending is the hard backstop that sheds fresh ingest while that
// many acknowledged events still wait for the WAL, and the
// -disk-*-bytes watermarks degrade the node as WAL disk space runs out.
//
// -detect adds the streaming fraud scores of DESIGN.md §15 to /report.
// -peers (with -node-id and -handoff-dir) joins a coordinator-free
// cluster with forwarding and hinted handoff (DESIGN.md §12).
// -trace-sample enables distributed tracing (DESIGN.md §13).
//
// Run qtag-server -h for the flags. Configuration errors exit 2 before
// the socket binds. On SIGINT/SIGTERM the HTTP server drains, then the
// collector stops its loops, drains the cluster node and the queue,
// takes a final snapshot and closes the WAL before the final log line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"qtag/internal/admission"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/collector"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/version"
	"qtag/internal/wal"
)

// options is the parsed command line.
type options struct {
	addr  string
	level slog.Level
	cfg   collector.Config
}

// parseFlags maps the command line onto a validated collector.Config.
func parseFlags(args []string, output io.Writer) (*options, error) {
	fs := flag.NewFlagSet("qtag-server", flag.ContinueOnError)
	fs.SetOutput(output)
	o := &options{}
	c := &o.cfg
	adm := &admission.Config{}
	det := &detect.Options{}
	cl := &cluster.Config{}
	fs.StringVar(&o.addr, "addr", ":8640", "listen address")
	fs.DurationVar(&c.LogEvery, "log-every", 30*time.Second, "interval between stats log lines (0 disables)")
	fs.StringVar(&c.WAL.Dir, "wal-dir", "", "segmented write-ahead journal directory (crash-safe durability)")
	fs.Int64Var(&c.WAL.SegmentBytes, "wal-segment-bytes", 8<<20, "rotate WAL segments at this size")
	fsync := fs.String("fsync", "batch", "WAL fsync policy: always, batch or interval")
	fs.DurationVar(&c.WAL.FsyncEvery, "fsync-every", time.Second, "fsync period for -fsync interval")
	fs.DurationVar(&c.SnapshotEvery, "snapshot-every", time.Minute, "snapshot + compaction cadence for -wal-dir (0 disables)")
	fs.IntVar(&c.Shards, "ingest-shards", beacon.DefaultStoreShards, "store shard count (rounded up to a power of two)")
	fs.Int64Var(&c.MaxBodyBytes, "max-body-bytes", beacon.DefaultMaxBodyBytes, "reject POST /v1/events bodies larger than this with 413")
	fs.BoolVar(&c.WAL.GroupCommit, "group-commit", true, "coalesce concurrent WAL appends into shared fsyncs")
	fs.IntVar(&c.WAL.GroupCommitMaxBatch, "group-commit-max-batch", 256, "max records per WAL group commit")
	fs.DurationVar(&c.WAL.GroupCommitMaxWait, "group-commit-max-wait", 0, "hold small commit groups open this long to let more callers join")
	fs.BoolVar(&c.DurableSync, "durable-sync", false, "acknowledge ingestion only after events are journaled (requires -wal-dir)")
	fs.StringVar(&c.StatsKey, "stats-key", "", "operator bearer token protecting the stats endpoints (empty = open)")
	fs.Float64Var(&c.IngestRate, "ingest-rate", 0, "per-client ingestion rate limit in req/s (0 = unlimited)")
	fs.Float64Var(&c.IngestBurst, "ingest-burst", 50, "per-client ingestion burst")
	fs.IntVar(&c.ShedPending, "shed-pending", 0, "admission backstop: shed fresh ingest with 503 while this many acknowledged events await the WAL (0 = disabled)")
	fs.DurationVar(&adm.RetryAfter, "retry-after", 2*time.Second, "Retry-After hint on shed responses")
	fs.IntVar(&adm.Limiter.MinLimit, "admission-min-inflight", 0, "adaptive concurrency limit floor (0 = package default)")
	fs.IntVar(&adm.Limiter.MaxLimit, "admission-max-inflight", 0, "adaptive concurrency limit ceiling (0 = package default)")
	fs.DurationVar(&adm.RecoveryHold, "admission-recovery-hold", 2*time.Second, "calm period before a browned-out node reports healthy again")
	fs.Int64Var(&c.Disk.LowBytes, "disk-low-bytes", 0, "WAL-disk low watermark: relax fsync to batch below this free space (0 disables; needs -wal-dir)")
	fs.Int64Var(&c.Disk.ShedBytes, "disk-shed-bytes", 0, "WAL-disk shed watermark: stop admitting new ingest below this free space (0 disables; needs -wal-dir)")
	fs.Int64Var(&c.Disk.ReadOnlyBytes, "disk-readonly-bytes", 0, "WAL-disk read-only watermark: refuse all writes below this free space (0 disables; needs -wal-dir)")
	fs.DurationVar(&c.Disk.CheckEvery, "disk-check-every", 2*time.Second, "free-space probe cadence for the disk watermarks")
	fs.IntVar(&c.Aggregate.MaxOpen, "report-max-open", 0, "cap open per-impression aggregation states; past it the coldest is evicted, totals frozen (0 = unbounded)")
	fs.IntVar(&c.QueueCap, "queue-cap", 4096, "durability queue capacity (events)")
	fs.DurationVar(&c.Aggregate.TTL, "report-ttl", 15*time.Minute, "evict idle per-impression aggregation state after this long (<0 disables)")
	fs.DurationVar(&c.SweepEvery, "report-sweep-every", time.Minute, "aggregation eviction sweep cadence (0 disables)")
	fs.DurationVar(&c.Aggregate.Window, "report-window", time.Minute, "rollup window width on GET /report")
	fs.IntVar(&c.Aggregate.MaxWindows, "report-windows", 60, "rollup windows retained on GET /report")
	detectOn := fs.Bool("detect", false, "streaming fraud detection: per-campaign anomaly scores on GET /report and qtag_detect_* metrics")
	fs.DurationVar(&det.TTL, "detect-ttl", 15*time.Minute, "evict idle per-impression detection state after this long (<0 disables; needs -detect)")
	fs.IntVar(&det.MaxOpen, "detect-max-open", 0, "cap open per-impression detection states; past it the coldest is evicted (0 = unbounded)")
	fs.Float64Var(&det.FlagThreshold, "detect-flag-threshold", 0, "composite score at which a campaign is flagged fraudulent (0 = package default)")
	logLevel := fs.String("log-level", "info", "log level (debug, info, warn, error)")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	fs.StringVar(&c.NodeID, "node-id", "", "this node's cluster id (cluster mode; requires -peers)")
	peers := fs.String("peers", "", "cluster peers as id=url,id=url (enables cluster mode)")
	fs.StringVar(&cl.HandoffDir, "handoff-dir", "", "hinted-handoff journal directory (required in cluster mode)")
	fs.DurationVar(&cl.ProbeEvery, "probe-every", time.Second, "peer health probe interval (cluster mode)")
	fs.Int64Var(&cl.ReadyHintBacklog, "ready-hint-backlog", 10000, "report unready when the handoff backlog exceeds this (0 disables)")
	fs.BoolVar(&cl.Binary, "binary-beacons", true, "forward peer-owned beacons (and hint-drain replays) with the compact binary codec; falls back to JSON automatically against pre-binary peers")
	fs.Float64Var(&c.Trace.SampleRate, "trace-sample", 0, "head sampling rate for distributed tracing in [0,1] (0 disables; errored spans always recorded)")
	fs.IntVar(&c.TraceBuffer, "trace-buffer", obs.DefaultSpanBuffer, "completed spans retained in the in-memory ring behind /debug/traces")
	fs.DurationVar(&c.AccessLog.SlowThreshold, "slow-request", 0, "log requests slower than this, with their trace id (0 disables)")
	fs.BoolVar(&c.AccessLog.LogAll, "access-log", false, "log every request: method, path, status, bytes, duration, trace id")
	fs.BoolVar(&c.MetricsExemplars, "metrics-exemplars", false, "attach OpenMetrics trace-id exemplars to /metrics histogram buckets")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var err error
	if o.level, err = parseLogLevel(*logLevel); err != nil {
		return nil, fmt.Errorf("bad -log-level: %w", err)
	}
	if c.WAL.Fsync, err = wal.ParseFsyncPolicy(*fsync); err != nil {
		return nil, fmt.Errorf("bad -fsync: %w", err)
	}
	c.Admission = adm
	if *detectOn {
		c.Detect = det
	}
	if *peers != "" {
		if cl.Peers, err = parsePeers(*peers); err != nil {
			return nil, fmt.Errorf("bad -peers: %w", err)
		}
		c.Cluster = cl
	}
	return o, c.Validate()
}

// parseLogLevel maps the -log-level flag onto a slog.Level.
func parseLogLevel(s string) (slog.Level, error) {
	var lvl slog.Level
	return lvl, lvl.UnmarshalText([]byte(s))
}

// parsePeers parses the -peers flag: "id=url,id=url". IDs must be
// unique and URLs non-empty.
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q; want id=url", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = url
	}
	return peers, nil
}

// handlerSwap atomically swaps the live handler: the boot handler
// (liveness yes, readiness no) serves while WAL replay runs, then the
// full stack takes over.
type handlerSwap struct{ v atomic.Value }

func (h *handlerSwap) Set(next http.Handler) { h.v.Store(&next) }
func (h *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*h.v.Load().(*http.Handler)).ServeHTTP(w, r)
}

// bootHandler answers probes during WAL boot replay: alive, not ready,
// everything else 503 with Retry-After.
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	writeStatus := func(w http.ResponseWriter, code int, body map[string]string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(body)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusOK, map[string]string{"status": "booting"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		writeStatus(w, http.StatusServiceUnavailable, map[string]string{
			"status": "unready", "reason": "wal boot replay in progress",
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeStatus(w, http.StatusServiceUnavailable, map[string]string{
			"error": "booting: wal replay in progress",
		})
	})
	return mux
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qtag-server:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.level}))
	slog.SetDefault(logger)
	o.cfg.Logger = logger

	// The shutdown context exists before anything else so forwarders
	// abort their retry schedules the moment SIGTERM lands.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.cfg.Cluster != nil {
		o.cfg.Cluster.BaseContext = func() context.Context { return ctx }
	}

	// Bind and serve immediately: the boot handler answers liveness
	// while /readyz stays 503 until WAL replay completes and the real
	// stack is swapped in, so orchestrators can tell a slow boot from a
	// dead process.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Error("listen", "addr", o.addr, "err", err)
		os.Exit(1)
	}
	swap := &handlerSwap{}
	swap.Set(bootHandler())
	httpServer := &http.Server{Handler: swap, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.Serve(ln) }()

	c, err := collector.Build(o.cfg)
	if err != nil {
		logger.Error("build collector", "err", err)
		os.Exit(1)
	}
	c.Start()
	swap.Set(c.Handler())
	logger.Info("qtag-server ready", "addr", o.addr, "version", version.Version)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "err", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	}
	// Every in-flight request has completed; tear the stack down in
	// dependency order so a SIGTERM never tears the last beacons.
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Close(drainCtx); err != nil {
		logger.Warn("close", "err", err)
	}
}
