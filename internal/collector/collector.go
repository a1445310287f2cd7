// Package collector assembles the Q-Tag ingest stack — the paper's §3
// monitoring server — from its parts: the sharded store, the observers
// that feed GET /report and the fraud scores, the durability chain and
// its WAL recovery, the cluster router, the HTTP routes, admission
// control, the middleware and the background loops. It is the only
// code that knows the order those parts go together in and come apart
// in. qtag-server, the benchmark ladder (internal/stress) and the
// cluster chaos harness all build their collectors here, so what the
// benchmarks and chaos suites exercise is what ships. See DESIGN.md §18.
package collector

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/analytics"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/report"
	"qtag/internal/version"
	"qtag/internal/wal"
)

// Config selects the stages of one collector. The zero value is an
// in-memory single node: no WAL, no admission control, no cluster.
// Each stage keeps its own package's option struct; Build fills in the
// fields that wire stages together (shard counts, the cluster node's
// Local sink and Tracer, the admission Backstop and Watermark).
type Config struct {
	// NodeID names this node on /metrics (qtag_build_info), on recorded
	// spans and, in cluster mode, on the ring (Cluster.Self).
	NodeID string
	// Shards is the store shard count, rounded up to a power of two
	// (beacon.DefaultStoreShards when zero). The aggregate and detect
	// stripes default to it.
	Shards int
	// MaxBodyBytes caps POST /v1/events bodies (beacon default when 0).
	MaxBodyBytes int64

	// Aggregate tunes the streaming /report accumulators.
	Aggregate aggregate.Options
	// Detect, when set, attaches streaming fraud detection to both
	// store hooks and serves its scores on GET /report.
	Detect *detect.Options
	// SweepEvery is the idle-state eviction sweep cadence for the
	// aggregates and the detector (0: no sweeper).
	SweepEvery time.Duration

	// WAL is the crash-safe journal; an empty Dir keeps the collector
	// in memory and drains the durability chain into beacon.Discard.
	WAL wal.Options
	// DurableSync acknowledges a POST only once its events are
	// journaled; otherwise the journal drains through the queue.
	DurableSync bool
	// QueueCap is the durability queue capacity (beacon default when 0).
	QueueCap int
	// SnapshotEvery is the WAL snapshot + compaction cadence; a final
	// snapshot is also taken on Close (0: neither).
	SnapshotEvery time.Duration

	// Admission, when set, fronts the stack with the adaptive
	// admission controller.
	Admission *admission.Config
	// ShedPending, with Admission, is the controller's hard backstop:
	// fresh ingest sheds while the unflushed backlog (queued plus
	// un-fsynced events) is at least this. 0 disables it; a negative
	// value trips it permanently.
	ShedPending int
	// Disk sets the WAL-disk watermarks (needs WAL.Dir and Admission);
	// Build fills Dir and OnChange. All thresholds zero disables it.
	Disk admission.WatermarkConfig

	// Cluster, when set, routes beacons over a consistent-hash ring of
	// peers and serves the federated GET /report.
	Cluster *cluster.Config

	// Trace enables distributed tracing when SampleRate > 0. Node
	// defaults to NodeID (else "qtag-server"); Store defaults to a new
	// ring of TraceBuffer spans served on GET /debug/traces.
	Trace       obs.TracerConfig
	TraceBuffer int

	// StatsKey guards the read endpoints with a bearer token.
	StatsKey string
	// IngestRate > 0 rate-limits ingestion per client at IngestBurst.
	IngestRate, IngestBurst float64
	// AccessLog configures request and slow-request logging.
	AccessLog beacon.AccessLogOptions
	// MetricsExemplars attaches trace-id exemplars to /metrics buckets.
	MetricsExemplars bool
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool

	// LogEvery runs the stats log line (and a WAL sync) at this cadence.
	LogEvery time.Duration
	// Logger receives the collector's log lines; nil discards them.
	Logger *slog.Logger
}

func (c Config) diskWatermarks() bool {
	return c.Disk.LowBytes > 0 || c.Disk.ShedBytes > 0 || c.Disk.ReadOnlyBytes > 0
}

// Validate reports configuration errors that Build would otherwise hit
// only after binding, replaying the WAL, or never.
func (c Config) Validate() error {
	if c.DurableSync && c.WAL.Dir == "" {
		return errors.New("collector: durable sync requires a WAL directory")
	}
	if c.Trace.SampleRate < 0 || c.Trace.SampleRate > 1 {
		return fmt.Errorf("collector: trace sample rate %g outside [0,1]", c.Trace.SampleRate)
	}
	if c.ShedPending != 0 && c.Admission == nil {
		return errors.New("collector: the shed-pending backstop requires admission control")
	}
	if c.diskWatermarks() {
		if c.WAL.Dir == "" {
			return errors.New("collector: disk watermarks require a WAL directory")
		}
		if c.Admission == nil {
			return errors.New("collector: disk watermarks require admission control")
		}
		if err := c.Disk.Validate(); err != nil {
			return err
		}
	}
	if c.Cluster != nil {
		if c.NodeID == "" {
			return errors.New("collector: cluster mode requires a node id")
		}
		if len(c.Cluster.Peers) > 0 && c.Cluster.HandoffDir == "" {
			return errors.New("collector: cluster peers require a handoff directory")
		}
		if _, clash := c.Cluster.Peers[c.NodeID]; clash {
			return fmt.Errorf("collector: peers must not contain this node's id %q", c.NodeID)
		}
	}
	return nil
}

// Collector is one assembled ingest stack. The exported components are
// for inspection (tests, benchmarks, the final log line); nil means the
// stage is not configured.
type Collector struct {
	Store     *beacon.Store
	Aggregate *aggregate.Aggregator
	Detect    *detect.Detector
	Journal   *beacon.WALJournal
	Queue     *beacon.QueueSink
	Breaker   *beacon.CircuitBreaker
	Node      *cluster.Node
	Server    *beacon.Server
	Admission *admission.Controller
	Spans     *obs.SpanStore

	cfg       Config
	log       *slog.Logger
	handler   http.Handler
	watermark *admission.Watermark

	stop      chan struct{}
	loops     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Build assembles the stack, recovering the WAL into the store on the
// way. Nothing serves and no background loop runs until Start. If any
// step fails, everything opened by the earlier steps is released.
func Build(cfg Config) (_ *Collector, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = beacon.DefaultStoreShards
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	c := &Collector{cfg: cfg, log: cfg.Logger, stop: make(chan struct{})}
	defer func() {
		if err != nil {
			c.release(context.Background(), false)
		}
	}()

	// Store and observers. The observers attach before the WAL replay
	// below, so boot recovery rebuilds /report and the fraud scores too.
	c.Store = beacon.NewStoreWithShards(cfg.Shards)
	aggOpts := cfg.Aggregate
	if aggOpts.Shards == 0 {
		aggOpts.Shards = cfg.Shards
	}
	c.Aggregate = aggregate.New(aggOpts)
	c.Store.AddObserver(c.Aggregate.Observe)
	if cfg.Detect != nil {
		detOpts := *cfg.Detect
		if detOpts.Shards == 0 {
			detOpts.Shards = cfg.Shards
		}
		c.Detect = detect.New(detOpts)
		c.Store.AddObserver(c.Detect.Observe)
		c.Store.AddDupObserver(c.Detect.ObserveDup)
	}

	// Durability chain: Tee(store, queue → breaker → journal), or with
	// DurableSync Tee(store, breaker → journal) on the request path.
	// Without a WAL the journal is Discard, so /metrics carries the same
	// queue and breaker series either way.
	var journal beacon.Sink = beacon.Discard
	if cfg.WAL.Dir != "" {
		var rec beacon.DurableRecovery
		c.Journal, rec, err = beacon.OpenDurable(cfg.WAL, c.Store)
		if err != nil {
			return nil, fmt.Errorf("collector: wal recovery in %s: %w", cfg.WAL.Dir, err)
		}
		c.log.Info("wal recovered", "dir", cfg.WAL.Dir, "segments", rec.Segments,
			"snapshot_restored", rec.SnapshotRestored, "replayed", rec.Replayed,
			"skipped", rec.ReplaySkipped, "quarantined", rec.Quarantined,
			"corrupt_snapshots", rec.CorruptSnapshots, "torn_tail", rec.TornTail,
			"duration", rec.Duration)
		journal = c.Journal
	}
	c.Breaker = beacon.NewCircuitBreaker(journal, beacon.DefaultBreakerThreshold, 5*time.Second)
	c.Queue = beacon.NewQueueSink(c.Breaker, beacon.QueueOptions{Capacity: cfg.QueueCap})
	sink := beacon.Tee(c.Store, c.Queue)
	if cfg.DurableSync {
		sink = beacon.Tee(c.Store, c.Breaker)
	}

	var tracer *obs.Tracer
	if cfg.Trace.SampleRate > 0 {
		tc := cfg.Trace
		if tc.Node == "" {
			tc.Node = cmp.Or(cfg.NodeID, "qtag-server")
		}
		if tc.Store == nil {
			tc.Store = obs.NewSpanStore(cmp.Or(cfg.TraceBuffer, obs.DefaultSpanBuffer))
		}
		c.Spans = tc.Store
		tracer = obs.NewTracer(tc)
	}

	// The cluster router slots between the HTTP layer and the local
	// chain: owner-local beacons fall through, the rest forward to their
	// owner or degrade to hinted handoff.
	if cfg.Cluster != nil {
		cc := *cfg.Cluster
		cc.Self, cc.Local, cc.Tracer = cfg.NodeID, sink, tracer
		if c.Node, err = cluster.NewNode(cc); err != nil {
			return nil, fmt.Errorf("collector: cluster node: %w", err)
		}
		sink = c.Node
	}
	// Receive time lands at the first node that sees a beacon, before
	// any forward, so the owner records the original arrival.
	sink = &beacon.StampSink{Next: sink, Now: time.Now}

	c.Server = beacon.NewServerWithSink(c.Store, sink)
	if cfg.MaxBodyBytes > 0 {
		c.Server.SetMaxBodyBytes(cfg.MaxBodyBytes)
	}
	c.mountRoutes(tracer)
	if err = c.buildAdmission(); err != nil {
		return nil, err
	}
	c.handler = c.wrapMiddleware()
	return c, nil
}

// mountRoutes adds the routes beyond the beacon server's own, and
// registers every stage's metrics and health gauges.
func (c *Collector) mountRoutes(tracer *obs.Tracer) {
	srv, reg := c.Server, c.Server.Metrics()
	srv.Mount("GET /v1/breakdown", analytics.Handler(c.Store))
	srv.Mount("GET /v1/timeseries", analytics.Handler(c.Store))
	if c.Node != nil {
		// The federated merge is aggregate-only: fraud scores are
		// per-node state.
		srv.Mount("GET /report", obs.TraceMiddleware(tracer, "report",
			cluster.FederatedHandler(c.Aggregate, cluster.FederationConfig{
				Self:      c.cfg.NodeID,
				Peers:     c.cfg.Cluster.Peers,
				Transport: c.cfg.Cluster.Transport,
				Tracer:    tracer,
			})))
		c.Node.RegisterMetrics(reg)
		srv.AddHealthMetric("hint_backlog", func() int64 { return c.Node.Stats().HintBacklog })
	} else {
		srv.Mount("GET /report", obs.TraceMiddleware(tracer, "report",
			report.HandlerWithDetect(c.Aggregate, c.Detect, nil)))
	}
	if tracer != nil {
		srv.SetTracer(tracer)
		c.Spans.RegisterMetrics(reg)
		srv.Mount("GET /debug/traces", obs.TracesHandler(c.Spans))
	}
	if c.cfg.MetricsExemplars {
		reg.SetExemplars(true)
	}
	obs.RegisterBuildInfo(reg, version.Version, c.cfg.NodeID)
	c.Aggregate.RegisterMetrics(reg)
	if c.Detect != nil {
		c.Detect.RegisterMetrics(reg)
	}
	c.Queue.RegisterMetrics(reg)
	c.Breaker.RegisterMetrics(reg)
	if c.Journal != nil {
		c.Journal.RegisterMetrics(reg)
		srv.AddHealthMetric("wal_disk_full", func() int64 {
			if c.Journal.DiskFull() {
				return 1
			}
			return 0
		})
		srv.AddHealthMetric("journal_pending", func() int64 { return int64(c.backlog()) })
	}
	if c.cfg.Pprof {
		srv.Mount("GET /debug/pprof/", http.HandlerFunc(pprof.Index))
		srv.Mount("GET /debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		srv.Mount("GET /debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		srv.Mount("GET /debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		srv.Mount("GET /debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
	if c.Node != nil {
		srv.SetReadiness(c.Node.Readiness())
	}
}

// backlog counts events accepted but not yet durable: whatever sits in
// the queue plus the journal's un-fsynced records.
func (c *Collector) backlog() int {
	n := c.Queue.Depth()
	if c.Journal != nil {
		n += c.Journal.Pending()
	}
	return n
}

// buildAdmission creates the admission controller, its backstop and
// its disk watermarks, and folds the controller's mode into /readyz.
func (c *Collector) buildAdmission() error {
	if c.cfg.Admission == nil {
		return nil
	}
	acfg := *c.cfg.Admission
	if limit := c.cfg.ShedPending; limit != 0 {
		acfg.Backstop = func() bool { return c.backlog() >= limit }
	}
	if c.cfg.diskWatermarks() {
		// Below the low watermark, trade fsync latency for headroom;
		// restore the configured policy once the disk recovers. The shed
		// and read-only levels feed the controller's mode machine.
		base := c.Journal.FsyncPolicy()
		wcfg := c.cfg.Disk
		wcfg.Dir = c.cfg.WAL.Dir
		wcfg.OnChange = func(from, to admission.Level) {
			if to >= admission.LevelLow && from < admission.LevelLow {
				c.Journal.SetFsyncPolicy(wal.FsyncOnBatch)
			} else if to < admission.LevelLow && from >= admission.LevelLow {
				c.Journal.SetFsyncPolicy(base)
			}
			c.log.Warn("wal disk watermark", "from", from, "to", to)
		}
		wm, err := admission.NewWatermark(wcfg)
		if err != nil {
			return fmt.Errorf("collector: disk watermark: %w", err)
		}
		c.watermark, acfg.Watermark = wm, wm
		wm.RegisterMetrics(c.Server.Metrics())
	}
	ctrl := admission.NewController(acfg)
	c.Admission = ctrl
	ctrl.RegisterMetrics(c.Server.Metrics())
	c.Server.AddHealthMetric("shed", ctrl.TotalShed)
	c.Server.AddHealthMetric("admission_mode", func() int64 { return int64(ctrl.Mode()) })
	// A browned-out or read-only node must leave the load balancer even
	// when its handoff backlog looks fine.
	var nodeReady func() error
	if c.Node != nil {
		nodeReady = c.Node.Readiness()
	}
	c.Server.SetReadiness(func() error {
		if nodeReady != nil {
			if err := nodeReady(); err != nil {
				return err
			}
		}
		if !ctrl.Ready() {
			return fmt.Errorf("admission: node is %s", ctrl.Mode())
		}
		return nil
	})
	return nil
}

// wrapMiddleware stacks the HTTP middleware, innermost first: rate
// limit, admission, stats auth, then access logging outermost so it
// records the final status of every layer below it.
func (c *Collector) wrapMiddleware() http.Handler {
	var h http.Handler = c.Server
	if c.cfg.IngestRate > 0 {
		h = beacon.NewRateLimiter(h, c.cfg.IngestRate, c.cfg.IngestBurst)
	}
	if c.Admission != nil {
		h = c.Admission.Middleware(h)
	}
	if c.cfg.StatsKey != "" {
		h = beacon.AuthStats(h, c.cfg.StatsKey)
	}
	opts := c.cfg.AccessLog
	if opts.Logger == nil {
		opts.Logger = c.log
	}
	return beacon.AccessLog(h, opts)
}

// Handler is the full HTTP stack.
func (c *Collector) Handler() http.Handler { return c.handler }

// Start launches the background work: the cluster probe and drain
// loop, the disk watermark poller, the eviction sweeper, the snapshot
// cadence and the stats log line. Close stops them all.
func (c *Collector) Start() {
	if c.Node != nil {
		c.Node.Start()
	}
	if c.watermark != nil {
		c.watermark.Start()
	}
	if c.cfg.SweepEvery > 0 && c.cfg.Aggregate.TTL >= 0 {
		c.every(c.cfg.SweepEvery, func(now time.Time) {
			if n := c.Aggregate.Sweep(now); n > 0 {
				c.log.Debug("aggregate sweep", "evicted", n, "open", c.Aggregate.OpenImpressions())
			}
			if c.Detect != nil {
				if n := c.Detect.Sweep(now); n > 0 {
					c.log.Debug("detect sweep", "evicted", n, "open", c.Detect.OpenImpressions())
				}
			}
		})
	}
	if c.Journal != nil && c.cfg.SnapshotEvery > 0 {
		c.every(c.cfg.SnapshotEvery, func(time.Time) { c.snapshot("wal snapshot") })
	}
	if c.cfg.LogEvery > 0 {
		c.every(c.cfg.LogEvery, func(time.Time) {
			// Keep idle streams durable under the batch and interval
			// fsync policies; a full disk degrades, it never crashes.
			if c.Journal != nil {
				if err := c.Journal.Sync(); err != nil {
					c.log.Warn("wal sync", "err", err)
				}
			}
			c.log.Info("stats", "events", c.Store.Len(), "accepted", c.Server.Accepted(),
				"rejected", c.Server.Rejected(), "campaigns", len(c.Store.CampaignIDs()),
				"queue_depth", c.Queue.Depth())
		})
	}
}

// every runs fn on a ticker until Close.
func (c *Collector) every(d time.Duration, fn func(time.Time)) {
	c.loops.Add(1)
	go func() {
		defer c.loops.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-t.C:
				fn(now)
			}
		}
	}()
}

// snapshot writes a WAL snapshot of the store, logging the outcome.
func (c *Collector) snapshot(msg string) {
	wrote, err := c.Journal.Snapshot(c.Store)
	if err != nil {
		c.log.Warn(msg, "err", err)
		return
	}
	if wrote {
		idx, _ := c.Journal.SnapshotInfo()
		c.log.Info(msg, "covers", idx, "segments", c.Journal.WAL().Segments())
	}
}

// Close shuts the stack down after the HTTP server has stopped handing
// it requests. The background loops stop first, so nothing races the
// teardown; then the cluster node drains (probe loop halts, in-flight
// hint drains finish, hint logs close), the queue drains into the
// journal (bounded by ctx), the final snapshot is taken and the WAL is
// fsynced and closed. Close is idempotent.
func (c *Collector) Close(ctx context.Context) error {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.loops.Wait()
		c.closeErr = c.release(ctx, true)
	})
	return c.closeErr
}

// release closes every stage Build opened, in dependency order; it is
// also Build's cleanup when a later step fails.
func (c *Collector) release(ctx context.Context, final bool) error {
	var errs []error
	if c.watermark != nil {
		c.watermark.Close()
	}
	if c.Node != nil {
		if err := c.Node.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster close: %w", err))
		}
	}
	if c.Queue != nil {
		if err := c.Queue.Close(ctx); err != nil {
			errs = append(errs, fmt.Errorf("queue drain: %w", err))
		}
	}
	pending := 0
	if c.Journal != nil {
		if final && c.cfg.SnapshotEvery > 0 {
			c.snapshot("final snapshot")
		}
		pending = c.Journal.Pending()
		if err := c.Journal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("wal close: %w", err))
		}
	}
	if final {
		var shed int64
		if c.Admission != nil {
			shed = c.Admission.TotalShed()
		}
		qs := c.Queue.Stats()
		c.log.Info("final", "events", c.Store.Len(), "accepted", c.Server.Accepted(),
			"rejected", c.Server.Rejected(), "shed", shed, "journal_pending_at_close", pending,
			"queue_flushed", qs.Flushed, "queue_dropped", qs.Dropped)
	}
	return errors.Join(errs...)
}
