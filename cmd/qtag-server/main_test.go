package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qtag/internal/admission"
	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/wal"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("n1=http://a:1, n2=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["n1"] != "http://a:1" || peers["n2"] != "http://b:2" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"n1", "=http://a", "n1=", "n1=http://a,n1=http://b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("parsePeers(%q) accepted", bad)
		}
	}
	if empty, err := parsePeers(""); err != nil || len(empty) != 0 {
		t.Fatalf("empty flag parsed to %v, %v", empty, err)
	}
}

func TestParseLogLevel(t *testing.T) {
	if _, err := parseLogLevel("debug"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseLogLevel("nonsense"); err == nil {
		t.Fatal("bad level accepted")
	}
}

// The boot handler must answer liveness 200 and readiness 503 the
// moment the socket binds, shed everything else with Retry-After, and
// the swap must atomically hand the same connections to the real stack.
func TestBootHandlerAndSwap(t *testing.T) {
	var swap handlerSwap
	swap.Set(bootHandler())
	srv := httptest.NewServer(&swap)
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if got := get("/healthz").StatusCode; got != http.StatusOK {
		t.Fatalf("/healthz during boot = %d, want 200", got)
	}
	if got := get("/readyz").StatusCode; got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during boot = %d, want 503", got)
	}
	resp := get("/v1/events")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest during boot = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	swap.Set(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	if got := get("/v1/events").StatusCode; got != http.StatusTeapot {
		t.Fatalf("post-swap status = %d, want the real stack", got)
	}
}

// TestParseFlagsRejectsBeforeBind: every configuration error surfaces
// from parseFlags — before main binds the socket or touches the WAL.
func TestParseFlagsRejectsBeforeBind(t *testing.T) {
	wal := t.TempDir() + "/wal"
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"malformed fsync without wal-dir", []string{"-fsync", "sometimes"}},
		{"malformed fsync with wal-dir", []string{"-wal-dir", wal, "-fsync", "sometimes"}},
		{"disk low watermark without wal-dir", []string{"-disk-low-bytes", "1"}},
		{"disk shed watermark without wal-dir", []string{"-disk-shed-bytes", "1"}},
		{"disk read-only watermark without wal-dir", []string{"-disk-readonly-bytes", "1"}},
		{"disk watermarks out of order", []string{"-wal-dir", wal, "-disk-low-bytes", "10", "-disk-shed-bytes", "20"}},
		{"durable sync without wal-dir", []string{"-durable-sync"}},
		{"trace sample out of range", []string{"-trace-sample", "1.5"}},
		{"bad log level", []string{"-log-level", "nonsense"}},
		{"malformed peers", []string{"-node-id", "n0", "-handoff-dir", "h", "-peers", "n1"}},
		{"peers without node id", []string{"-handoff-dir", "h", "-peers", "n1=http://a"}},
		{"peers without handoff dir", []string{"-node-id", "n0", "-peers", "n1=http://a"}},
		{"peers contain self", []string{"-node-id", "n0", "-handoff-dir", "h", "-peers", "n0=http://a"}},
		{"removed -journal flag", []string{"-journal", "beacons.jsonl"}},
		{"removed -admission flag", []string{"-admission=false"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseFlags(tc.args, io.Discard); err == nil {
				t.Fatalf("parseFlags(%q) accepted", tc.args)
			}
		})
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("a rejected configuration touched the WAL dir: %v", err)
	}
	if _, err := parseFlags(nil, io.Discard); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// benchmarkArgs are the flags the repository benchmark pins on every
// measured qtag-server.
func benchmarkArgs(walDir string, detect bool) []string {
	args := []string{"-addr", "127.0.0.1:0", "-wal-dir", walDir, "-durable-sync", "-fsync", "always"}
	if detect {
		args = append(args, "-detect")
	}
	return args
}

// TestBenchmarkFlagsMapToShippedStack: the benchmark's pinned flags
// select the durable-ack stack qtag-server has always run for it —
// WAL at fsync=always with group commit, durable sync, admission with
// its default tuning, no backstop, no cluster, detection only with
// -detect — and Build assembles exactly those stages.
func TestBenchmarkFlagsMapToShippedStack(t *testing.T) {
	for _, detect := range []bool{false, true} {
		dir := t.TempDir()
		o, err := parseFlags(benchmarkArgs(dir, detect), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		c := o.cfg
		want := wal.Options{Dir: dir, SegmentBytes: 8 << 20, Fsync: wal.FsyncAlways, FsyncEvery: time.Second,
			GroupCommit: true, GroupCommitMaxBatch: 256}
		if c.WAL.Dir != want.Dir || c.WAL.SegmentBytes != want.SegmentBytes || c.WAL.Fsync != want.Fsync ||
			c.WAL.FsyncEvery != want.FsyncEvery || c.WAL.GroupCommit != want.GroupCommit ||
			c.WAL.GroupCommitMaxBatch != want.GroupCommitMaxBatch || c.WAL.GroupCommitMaxWait != 0 {
			t.Errorf("WAL options = %+v, want %+v", c.WAL, want)
		}
		if !c.DurableSync || c.Shards != beacon.DefaultStoreShards || c.QueueCap != 4096 ||
			c.SnapshotEvery != time.Minute || c.SweepEvery != time.Minute || c.ShedPending != 0 {
			t.Errorf("collector config = %+v", c)
		}
		if c.Admission == nil || c.Admission.RetryAfter != 2*time.Second || c.Admission.RecoveryHold != 2*time.Second ||
			!reflect.DeepEqual(c.Admission.Limiter, admission.LimiterConfig{}) || c.Admission.Backstop != nil {
			t.Errorf("admission = %+v, want on with default tuning", c.Admission)
		}
		if c.Cluster != nil || (c.Detect != nil) != detect {
			t.Errorf("cluster = %v, detect = %v (want detect %v)", c.Cluster, c.Detect, detect)
		}
		col, err := collector.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		if col.Journal == nil || col.Admission == nil || col.Node != nil || (col.Detect != nil) != detect ||
			!col.Journal.WAL().GroupCommitEnabled() {
			t.Errorf("built stack: journal=%v admission=%v node=%v detect=%v",
				col.Journal != nil, col.Admission != nil, col.Node != nil, col.Detect != nil)
		}
		if err := col.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSurfaceMatchesParent pins the HTTP surface of the benchmark and
// cluster configurations — routes, /metrics series names and /healthz
// keys — to the lists captured from qtag-server before the collector
// assembly moved into internal/collector.
func TestSurfaceMatchesParent(t *testing.T) {
	for _, tc := range []struct {
		name, metrics string
		args          func(dir string) []string
		healthz       []string
	}{
		{"benchmark", "metrics-bench.txt", func(dir string) []string { return benchmarkArgs(dir+"/wal", false) },
			[]string{"accepted", "admission_mode", "events", "journal_pending", "rejected", "shed", "status", "wal_disk_full"}},
		{"benchmark-detect", "metrics-bench-detect.txt", func(dir string) []string { return benchmarkArgs(dir+"/wal", true) },
			[]string{"accepted", "admission_mode", "events", "journal_pending", "rejected", "shed", "status", "wal_disk_full"}},
		{"cluster", "metrics-cluster.txt", func(dir string) []string {
			return []string{"-node-id", "n0", "-peers", "n1=http://127.0.0.1:1", "-handoff-dir", dir + "/h", "-wal-dir", dir + "/w"}
		}, []string{"accepted", "admission_mode", "events", "hint_backlog", "journal_pending", "rejected", "shed", "status", "wal_disk_full"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseFlags(tc.args(t.TempDir()), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			c, err := collector.Build(o.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			srv := httptest.NewServer(c.Handler())
			defer func() {
				srv.Close()
				c.Close(context.Background())
			}()

			resp, err := http.Post(srv.URL+"/v1/events", "application/json",
				strings.NewReader(`{"impression_id":"i1","campaign_id":"c1","type":"served","at":"2019-01-01T00:00:01Z"}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /v1/events = %d", resp.StatusCode)
			}
			for path, want := range map[string]int{
				"/v1/events": 200, "/v1/stats": 200, "/v1/campaigns/c1/stats": 200, "/healthz": 200,
				"/readyz": 200, "/metrics": 200, "/report": 200, "/report?federated=1": 200,
				"/v1/breakdown": 400, "/v1/timeseries": 200, "/debug/traces": 404, "/debug/pprof/": 404, "/nope": 404,
			} {
				if got := get(t, srv.URL+path); got.StatusCode != want {
					t.Errorf("GET %s = %d, want %d", path, got.StatusCode, want)
				}
			}

			body := getBody(t, srv.URL+"/metrics")
			var series []string
			for _, line := range strings.Split(body, "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
					series = append(series, f[2])
				}
			}
			sort.Strings(series)
			want, err := os.ReadFile(filepath.Join("testdata", tc.metrics))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(series, "\n") + "\n"; got != string(want) {
				t.Errorf("/metrics series differ from testdata/%s:\n got: %v\nwant: %v", tc.metrics, series, strings.Fields(string(want)))
			}

			var health map[string]any
			if err := json.Unmarshal([]byte(getBody(t, srv.URL+"/healthz")), &health); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(health))
			for k := range health {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, tc.healthz) {
				t.Errorf("/healthz keys = %v, want %v", keys, tc.healthz)
			}
		})
	}
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
