package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/wal"
)

func served(id string) beacon.Event {
	return beacon.Event{ImpressionID: id, CampaignID: "c1", Type: beacon.EventServed,
		At: time.Unix(1500000000, 0).UTC()}
}

// serve builds cfg, starts it behind an httptest server and registers
// the teardown: HTTP server first, then the collector.
func serve(t *testing.T, cfg Config) (*Collector, string) {
	t.Helper()
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := c.Close(context.Background()); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return c, srv.URL
}

func TestValidate(t *testing.T) {
	adm := &admission.Config{}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"durable sync without WAL", Config{DurableSync: true}, "durable sync"},
		{"trace sample above 1", Config{Trace: obs.TracerConfig{SampleRate: 2}}, "sample rate"},
		{"trace sample below 0", Config{Trace: obs.TracerConfig{SampleRate: -0.5}}, "sample rate"},
		{"backstop without admission", Config{ShedPending: 10}, "admission"},
		{"disk watermark without WAL", Config{Admission: adm, Disk: admission.WatermarkConfig{LowBytes: 1}}, "WAL directory"},
		{"disk watermark without admission", Config{WAL: wal.Options{Dir: "d"}, Disk: admission.WatermarkConfig{ShedBytes: 1}}, "admission"},
		{"disk watermarks out of order", Config{WAL: wal.Options{Dir: "d"}, Admission: adm,
			Disk: admission.WatermarkConfig{LowBytes: 10, ShedBytes: 20}}, "above low"},
		{"cluster without node id", Config{Cluster: &cluster.Config{}}, "node id"},
		{"peers without handoff dir", Config{NodeID: "n0", Cluster: &cluster.Config{Peers: map[string]string{"n1": "http://x"}}}, "handoff"},
		{"peers contain self", Config{NodeID: "n0", Cluster: &cluster.Config{Peers: map[string]string{"n0": "http://x"}, HandoffDir: "h"}}, "this node's id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, tc.want)
			}
			if _, berr := Build(tc.cfg); berr == nil {
				t.Fatal("Build accepted an invalid config")
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// waitGoroutines polls until the goroutine count is back at baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines = %d, baseline %d — leaked:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBuildFailureReleasesEverything fails each assembly step in turn,
// after the WAL (with its group committer) and the queue's drain
// goroutine are already open, and checks that nothing outlives the
// failed Build: the goroutine count returns to baseline and the same
// WAL directory reopens cleanly.
func TestBuildFailureReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	base := func() Config {
		return Config{
			NodeID:      "n0",
			WAL:         wal.Options{Dir: walDir, Fsync: wal.FsyncAlways, GroupCommit: true},
			DurableSync: true,
			Admission:   &admission.Config{},
			Detect:      &detect.Options{},
			Trace:       obs.TracerConfig{SampleRate: 1},
		}
	}
	// Seed the WAL so every reopen below has something to replay.
	seed, err := Build(base())
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Store.Submit(served("seed")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Journal.Submit(served("seed")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"bad peers", func(c *Config) {
			c.Cluster = &cluster.Config{Peers: map[string]string{"n0": "http://127.0.0.1:1"}, HandoffDir: filepath.Join(dir, "h")}
		}},
		{"unwritable handoff dir", func(c *Config) {
			c.Cluster = &cluster.Config{Peers: map[string]string{"n1": "http://127.0.0.1:1"}, HandoffDir: filepath.Join(notADir, "h")}
		}},
		{"unwritable WAL dir", func(c *Config) { c.WAL.Dir = filepath.Join(notADir, "wal") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := base()
			tc.mut(&cfg)
			if c, err := Build(cfg); err == nil {
				c.Close(context.Background())
				t.Fatal("Build succeeded, want a failure")
			}
			waitGoroutines(t, baseline)
			again, err := Build(base())
			if err != nil {
				t.Fatalf("WAL dir does not reopen after the failed build: %v", err)
			}
			if again.Store.Len() != 1 {
				t.Errorf("reopened store holds %d events, want 1", again.Store.Len())
			}
			if err := again.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCloseStopsLoopsBeforeFinalSnapshot runs every background loop at
// a 1ms cadence under concurrent ingest, then closes mid-flight. Close
// must stop the loops before the cluster/queue drain, the final
// snapshot and the WAL close: a periodic snapshot or sync that races
// the teardown (or outlives it) fails against the closed WAL and logs a
// warning, which this test treats as a failure. Everything acked must
// be in the WAL afterwards. Run with -race.
func TestCloseStopsLoopsBeforeFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	var warnings syncBuffer
	cfg := Config{
		Logger:        slog.New(slog.NewTextHandler(&warnings, &slog.HandlerOptions{Level: slog.LevelWarn})),
		WAL:           wal.Options{Dir: dir, Fsync: wal.FsyncOnBatch, GroupCommit: true},
		SnapshotEvery: time.Millisecond,
		SweepEvery:    time.Millisecond,
		LogEvery:      time.Millisecond,
		Aggregate:     aggregate.Options{TTL: time.Millisecond},
		Detect:        &detect.Options{TTL: time.Millisecond},
	}
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		srv := httptest.NewServer(c.Handler())
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sink := &beacon.HTTPSink{BaseURL: srv.URL}
				for i := 0; i < 25; i++ {
					if err := sink.Submit(served(fmt.Sprintf("r%d-w%d-%d", round, w, i))); err != nil {
						t.Error(err)
					}
				}
			}(w)
		}
		wg.Wait()
		srv.Close()
		if err := c.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(context.Background()); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		time.Sleep(5 * time.Millisecond) // a loop that outlived Close would tick here
		if w := warnings.String(); w != "" {
			t.Fatalf("round %d: background work hit the torn-down stack:\n%s", round, w)
		}
		restored := beacon.NewStore()
		if _, err := beacon.ReplayWALDir(dir, restored); err != nil {
			t.Fatal(err)
		}
		if restored.Len() != 100*(round+1) {
			t.Fatalf("round %d: WAL holds %d events, want %d", round, restored.Len(), 100*(round+1))
		}
	}
	waitGoroutines(t, baseline)
}

// TestBackstopShedsIngestionKeepsReads: while the admission backstop
// is tripped, ingest answers 503 + Retry-After, reads keep working, the
// shed shows on /healthz, and ingest flows again once it clears.
func TestBackstopShedsIngestionKeepsReads(t *testing.T) {
	var tripped atomic.Bool
	c, url := serve(t, Config{Admission: &admission.Config{
		RetryAfter: 2 * time.Second,
		Backstop:   tripped.Load,
	}})
	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(url+"/v1/events", "application/json",
			strings.NewReader(`{"impression_id":"x","campaign_id":"c","type":"served"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy ingest = %d", resp.StatusCode)
	}
	tripped.Store(true)
	resp := post()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("tripped ingest = %d (Retry-After %q), want 503 with 2", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	for _, path := range []string{"/v1/stats", "/report"} {
		r, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s shed under the backstop: %d", path, r.StatusCode)
		}
	}
	if got := c.Admission.TotalShed(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
	health := getJSON(t, url+"/healthz")
	if health["shed"] != 1.0 || health["accepted"] != 1.0 {
		t.Errorf("/healthz = %v, want shed 1 accepted 1", health)
	}
	tripped.Store(false)
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Errorf("recovered ingest = %d", resp.StatusCode)
	}
}

// TestHTTPSinkRidesOutAdmissionShed: a client built on HTTPSink honours
// the admission controller's 503 + Retry-After and delivers once the
// shed window closes.
func TestHTTPSinkRidesOutAdmissionShed(t *testing.T) {
	var tripped atomic.Bool
	tripped.Store(true)
	c, url := serve(t, Config{Admission: &admission.Config{
		RetryAfter: time.Second,
		Backstop:   tripped.Load,
	}})
	var slept []time.Duration
	sink := &beacon.HTTPSink{BaseURL: url, Retries: 3, Sleep: func(d time.Duration) {
		slept = append(slept, d)
		if len(slept) == 2 {
			tripped.Store(false)
		}
	}}
	if err := sink.Submit(served("i1")); err != nil {
		t.Fatalf("sink should ride out the shed window: %v", err)
	}
	if c.Store.Len() != 1 {
		t.Error("event lost across shed window")
	}
	if len(slept) != 2 {
		t.Errorf("slept %d times, want 2", len(slept))
	}
	for _, d := range slept {
		if d != time.Second {
			t.Errorf("client ignored Retry-After: slept %v", d)
		}
	}
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}
