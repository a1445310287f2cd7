package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/analytics"
	"qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/report"
	"qtag/internal/wal"
)

// eventID identifies one generated beacon: the traffic has one event per
// (impression, type).
type eventID struct {
	imp string
	typ beacon.EventType
}

// stack is the ingest stack assembled in process from the packages'
// public constructors, in qtag-server's -durable-sync order: store →
// observers → Tee(store, breaker(WALJournal)) → Server → admission. With
// a recorder, the benchmark's wrappers time every call across each layer
// boundary; without one the stack is the same minus the wrappers.
type stack struct {
	store  *beacon.Store
	agg    *aggregate.Aggregator
	det    *detect.Detector
	wj     *beacon.WALJournal
	ctrl   *admission.Controller
	fs     *tracedFS
	rec    *recorder
	url    string
	srv    *http.Server
	stopSn chan struct{}
	snDone chan struct{}

	replay        time.Duration
	replayRecords int

	// keyReq maps each beacon of an open-loop phase to its request id
	// (read-only while serving). Closed-loop phases have one ingest
	// request in flight at a time, so current names it.
	keyReq  map[eventID]int32
	current atomic.Int32

	firstSeen, dups, detectDups atomic.Int64
}

func (s *stack) reqOf(e beacon.Event) int32 {
	if id, ok := s.keyReq[eventID{e.ImpressionID, e.Type}]; ok {
		return id
	}
	return s.current.Load()
}

func reqID(r *http.Request) int32 {
	id, err := strconv.Atoi(r.Header.Get(reqHeader))
	if err != nil {
		return -2
	}
	return int32(id)
}

// timedSink wraps a Sink with a span per Submit.
type timedSink struct {
	next  beacon.Sink
	layer layer
	s     *stack
}

func (t *timedSink) Submit(e beacon.Event) error {
	start := t.s.rec.now()
	err := t.next.Submit(e)
	t.s.rec.add(span{layer: t.layer, req: t.s.reqOf(e), start: start, end: t.s.rec.now()})
	return err
}

// observe wraps an observer with a span per call.
func (s *stack) observe(l layer, fn func(beacon.Event), count *atomic.Int64) func(beacon.Event) {
	return func(e beacon.Event) {
		start := s.rec.now()
		fn(e)
		s.rec.add(span{layer: l, req: s.reqOf(e), start: start, end: s.rec.now()})
		if count != nil {
			count.Add(1)
		}
	}
}

// countingWriter counts response bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// handlerSpan wraps h with a span of layer l per request; onEnter runs
// first (the server wrapper names the current ingest request with it).
func (s *stack) handlerSpan(l layer, h http.Handler, onEnter func(r *http.Request, id int32)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqID(r)
		if onEnter != nil {
			onEnter(r, id)
		}
		cw := &countingWriter{ResponseWriter: w}
		start := s.rec.now()
		h.ServeHTTP(cw, r)
		s.rec.add(span{layer: l, req: id, start: start, end: s.rec.now(), bytes: cw.n})
	})
}

// buildStack recovers walDir and serves the stack on a loopback port.
// rec nil builds the untraced stack.
func buildStack(walDir string, detectOn bool, rec *recorder, keyReq map[eventID]int32) (*stack, error) {
	s := &stack{rec: rec, keyReq: keyReq, stopSn: make(chan struct{}), snDone: make(chan struct{})}
	s.current.Store(-2)
	traced := rec != nil
	s.store = beacon.NewStoreWithShards(beacon.DefaultStoreShards)
	s.agg = aggregate.New(aggregate.Options{
		Shards: beacon.DefaultStoreShards, TTL: 15 * time.Minute, Window: time.Minute, MaxWindows: 60,
	})
	if traced {
		s.store.AddObserver(s.observe(lAggregate, s.agg.Observe, &s.firstSeen))
		s.store.AddDupObserver(func(beacon.Event) { s.dups.Add(1) })
	} else {
		s.store.AddObserver(s.agg.Observe)
	}
	if detectOn {
		s.det = detect.New(detect.Options{Shards: beacon.DefaultStoreShards, TTL: 15 * time.Minute})
		if traced {
			s.store.AddObserver(s.observe(lDetect, s.det.Observe, nil))
			s.store.AddDupObserver(s.observe(lDetect, s.det.ObserveDup, &s.detectDups))
		} else {
			s.store.AddObserver(s.det.Observe)
			s.store.AddDupObserver(s.det.ObserveDup)
		}
	}
	opts := wal.Options{
		Dir: walDir, SegmentBytes: 8 << 20, Fsync: wal.FsyncAlways, FsyncEvery: time.Second,
		GroupCommit: true, GroupCommitMaxBatch: 256,
	}
	if traced {
		s.fs = &tracedFS{FS: wal.OS, rec: rec}
		opts.FS = s.fs
	}
	t0 := time.Now()
	wj, recov, err := beacon.OpenDurable(opts, s.store)
	if err != nil {
		return nil, err
	}
	s.replay = time.Since(t0)
	s.replayRecords = recov.Replayed + recov.SnapshotRestored
	s.wj = wj
	var journal, storeSink beacon.Sink = wj, s.store
	if traced {
		journal = &timedSink{next: wj, layer: lJournal, s: s}
		storeSink = &timedSink{next: s.store, layer: lStore, s: s}
	}
	breaker := beacon.NewCircuitBreaker(journal, beacon.DefaultBreakerThreshold, 5*time.Second)
	sink := beacon.Sink(&beacon.StampSink{Next: beacon.Tee(storeSink, breaker), Now: time.Now})
	server := beacon.NewServerWithSink(s.store, sink)
	server.SetMaxBodyBytes(beacon.DefaultMaxBodyBytes)
	server.Mount("GET /v1/breakdown", analytics.Handler(s.store))
	server.Mount("GET /v1/timeseries", analytics.Handler(s.store))
	var rep http.Handler = report.HandlerWithDetect(s.agg, s.det, nil)
	var inner http.Handler = server
	if traced {
		rep = s.handlerSpan(lReport, rep, nil)
	}
	server.Mount("GET /report", rep)
	if traced {
		inner = s.handlerSpan(lServer, server, func(r *http.Request, id int32) {
			if r.Method == http.MethodPost {
				s.current.Store(id)
			}
		})
	}
	s.ctrl = admission.NewController(admission.Config{RetryAfter: 2 * time.Second, RecoveryHold: 2 * time.Second})
	handler := s.ctrl.Middleware(inner)
	if traced {
		handler = s.handlerSpan(lAdmission, handler, nil)
	}
	handler = beacon.AccessLog(handler, beacon.AccessLogOptions{})
	go func() {
		// qtag-server's snapshot + compaction cadence.
		defer close(s.snDone)
		t := time.NewTicker(time.Minute)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_, _ = s.wj.Snapshot(s.store)
			case <-s.stopSn:
				return
			}
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(fmt.Errorf("serve in-process stack: %w", err))
		}
	}()
	return s, nil
}

func (s *stack) close() {
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
	}
	close(s.stopSn)
	<-s.snDone
	_ = s.wj.Close()
}
