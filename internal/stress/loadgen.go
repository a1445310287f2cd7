package stress

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/simrand"
)

// This file is the server-side counterpart of the tag stress harness:
// a concurrent load generator that drives the full HTTP collection
// server (WAL and all) with mixed beacon traffic and reports measured
// throughput and latency quantiles — the ingest path's speedup is
// measured, never claimed.

// LoadOptions tunes RunLoad. The zero value picks sensible defaults.
type LoadOptions struct {
	// Workers is the number of concurrent client goroutines. Default 8.
	Workers int
	// Events is the total number of beacon events to send across all
	// workers. Default 2000.
	Events int
	// BatchSize is the number of events per POST /v1/events request.
	// Default 1 — one beacon per request, the browser-tag shape.
	BatchSize int
	// Campaigns spreads impressions over this many campaign ids. Default 4.
	Campaigns int
	// InViewRate is the fraction of impressions that report in-view (a
	// fraction of those also report out-of-view). Default 0.6.
	InViewRate float64
	// Seed makes the generated traffic deterministic per worker.
	Seed uint64
	// TolerateShed counts 503/429 answers as shed load instead of
	// errors — the expected outcome when driving an admission-controlled
	// server past its limit. Shed requests are not retried; their events
	// simply never count as accepted.
	TolerateShed bool
	// Binary pre-serializes request bodies with the compact binary
	// beacon codec and posts them as application/x-qtag-binary — the
	// binary-codec rungs of the benchmark ladder.
	Binary bool
	// Client overrides the HTTP client (default: pooled transport sized
	// to Workers).
	Client *http.Client
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Events <= 0 {
		o.Events = 2000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Campaigns <= 0 {
		o.Campaigns = 4
	}
	if o.InViewRate <= 0 {
		o.InViewRate = 0.6
	}
	return o
}

// LoadReport is the measured outcome of one load run.
type LoadReport struct {
	Workers    int           `json:"workers"`
	Events     int           `json:"events"`
	Requests   int64         `json:"requests"`
	Accepted   int64         `json:"accepted"`
	Rejected   int64         `json:"rejected"`
	Shed       int64         `json:"shed,omitempty"` // 503/429 answers under TolerateShed
	Errors     int64         `json:"errors"`
	Duration   time.Duration `json:"duration_ns"`
	Eps        float64       `json:"throughput_eps"` // accepted events per second
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	MaxLatency time.Duration `json:"max_ns"`
}

// String implements fmt.Stringer.
func (r LoadReport) String() string {
	return fmt.Sprintf("load: %d events / %d reqs over %d workers in %v — %.0f ev/s, p50=%v p90=%v p99=%v max=%v (accepted=%d rejected=%d shed=%d errors=%d)",
		r.Events, r.Requests, r.Workers, r.Duration.Round(time.Millisecond), r.Eps,
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.MaxLatency.Round(time.Microsecond),
		r.Accepted, r.Rejected, r.Shed, r.Errors)
}

// genEvents produces one worker's deterministic mixed traffic: for each
// impression a served event, a loaded check-in, then with probability
// InViewRate an in-view (and half the time an out-of-view after it) —
// the event lifecycle of §3 under random slicing attributes.
func genEvents(worker int, quota int, opts LoadOptions) []beacon.Event {
	rng := simrand.New(opts.Seed).Fork(fmt.Sprintf("load-worker-%d", worker))
	oses := []string{"android", "ios", "windows", "macos"}
	sites := []string{"news", "blog", "sports", "video"}
	out := make([]beacon.Event, 0, quota)
	at := time.Unix(1500000000, 0).UTC()
	for imp := 0; len(out) < quota; imp++ {
		id := fmt.Sprintf("load-w%d-i%06d", worker, imp)
		camp := fmt.Sprintf("camp-%d", rng.Intn(opts.Campaigns))
		meta := beacon.Meta{
			OS:       oses[rng.Intn(len(oses))],
			SiteType: sites[rng.Intn(len(sites))],
		}
		out = append(out, beacon.Event{
			ImpressionID: id, CampaignID: camp, Type: beacon.EventServed, At: at, Meta: meta,
		})
		out = append(out, beacon.Event{
			ImpressionID: id, CampaignID: camp, Source: beacon.SourceQTag,
			Type: beacon.EventLoaded, At: at.Add(time.Second), Meta: meta,
		})
		if rng.Bool(opts.InViewRate) {
			out = append(out, beacon.Event{
				ImpressionID: id, CampaignID: camp, Source: beacon.SourceQTag,
				Type: beacon.EventInView, At: at.Add(2 * time.Second), Meta: meta,
			})
			if rng.Bool(0.5) {
				out = append(out, beacon.Event{
					ImpressionID: id, CampaignID: camp, Source: beacon.SourceQTag,
					Type: beacon.EventOutOfView, At: at.Add(3 * time.Second), Meta: meta,
				})
			}
		}
	}
	return out[:quota]
}

// RunLoad drives baseURL's POST /v1/events with opts.Workers concurrent
// goroutines of mixed traffic and returns measured throughput and
// latency quantiles. Latencies are collected raw per worker and merged,
// so the quantiles are exact, not bucket-interpolated.
func RunLoad(baseURL string, opts LoadOptions) (LoadReport, error) {
	opts = opts.withDefaults()
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        opts.Workers * 2,
				MaxIdleConnsPerHost: opts.Workers * 2,
			},
		}
	}
	url := baseURL + "/v1/events"

	var requests, accepted, rejected, shed, httpErrs atomic.Int64
	latencies := make([][]time.Duration, opts.Workers)
	var wg sync.WaitGroup
	var firstErr atomic.Value

	// Pre-serialize every request body before the clock starts: the run
	// measures the server's ingest path, not the generator's JSON
	// marshaling (which would otherwise compete for the same cores).
	bodies := make([][][]byte, opts.Workers)
	for wkr := 0; wkr < opts.Workers; wkr++ {
		quota := opts.Events / opts.Workers
		if wkr < opts.Events%opts.Workers {
			quota++
		}
		if quota == 0 {
			continue
		}
		events := genEvents(wkr, quota, opts)
		for off := 0; off < len(events); off += opts.BatchSize {
			end := min(off+opts.BatchSize, len(events))
			var body []byte
			switch {
			case opts.Binary:
				body = beacon.AppendBinaryEvents(nil, events[off:end])
			case end-off == 1:
				body, _ = json.Marshal(events[off])
			default:
				body, _ = json.Marshal(events[off:end])
			}
			bodies[wkr] = append(bodies[wkr], body)
		}
	}
	contentType := "application/json"
	if opts.Binary {
		contentType = beacon.BinaryContentType
	}

	start := time.Now()
	for wkr := 0; wkr < opts.Workers; wkr++ {
		if len(bodies[wkr]) == 0 {
			continue
		}
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			lats := make([]time.Duration, 0, len(bodies[wkr]))
			for _, body := range bodies[wkr] {
				t0 := time.Now()
				resp, err := client.Post(url, contentType, bytes.NewReader(body))
				lats = append(lats, time.Since(t0))
				requests.Add(1)
				if err != nil {
					httpErrs.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				if opts.TolerateShed && (resp.StatusCode == http.StatusServiceUnavailable ||
					resp.StatusCode == http.StatusTooManyRequests) {
					resp.Body.Close()
					shed.Add(1)
					continue
				}
				var ir struct {
					Accepted int `json:"accepted"`
					Rejected int `json:"rejected"`
				}
				jerr := json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if jerr != nil || resp.StatusCode >= 500 {
					httpErrs.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("status %d (decode: %v)", resp.StatusCode, jerr))
					continue
				}
				accepted.Add(int64(ir.Accepted))
				rejected.Add(int64(ir.Rejected))
			}
			latencies[wkr] = lats
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := make([]time.Duration, 0, opts.Events)
	for _, l := range latencies {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	rep := LoadReport{
		Workers:  opts.Workers,
		Events:   opts.Events,
		Requests: requests.Load(),
		Accepted: accepted.Load(),
		Rejected: rejected.Load(),
		Shed:     shed.Load(),
		Errors:   httpErrs.Load(),
		Duration: elapsed,
	}
	if elapsed > 0 {
		rep.Eps = float64(rep.Accepted) / elapsed.Seconds()
	}
	if len(merged) > 0 {
		rep.P50 = rawQuantile(merged, 0.50)
		rep.P90 = rawQuantile(merged, 0.90)
		rep.P99 = rawQuantile(merged, 0.99)
		rep.MaxLatency = merged[len(merged)-1]
	}
	var err error
	if e := firstErr.Load(); e != nil {
		err = e.(error)
	}
	return rep, err
}

// rawQuantile reads the q-quantile from a sorted latency slice.
func rawQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// IngestServer is a live in-process collection server: a collector
// assembled by collector.Build — the same stack qtag-server ships —
// serving on a loopback listener.
type IngestServer struct {
	*collector.Collector
	URL string

	httpSrv *http.Server
}

// StartIngestServer binds a loopback listener, builds the configured
// collector and serves it — qtag-server's bind, build, serve order.
// Close releases everything.
func StartIngestServer(cfg collector.Config) (*IngestServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c, err := collector.Build(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	c.Start()
	s := &IngestServer{
		Collector: c,
		URL:       "http://" + ln.Addr().String(),
		httpSrv:   &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return s, nil
}

// Close drains and shuts everything down: the HTTP server first, then
// the collector.
func (s *IngestServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(s.httpSrv.Shutdown(ctx), s.Collector.Close(ctx))
}
