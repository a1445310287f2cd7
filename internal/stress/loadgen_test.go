package stress

import (
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/collector"
	"qtag/internal/wal"
)

func TestGenEventsDeterministic(t *testing.T) {
	opts := LoadOptions{Seed: 42, Campaigns: 3, InViewRate: 0.5}.withDefaults()
	a := genEvents(2, 50, opts)
	b := genEvents(2, 50, opts)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("quota not honored: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := genEvents(3, 50, opts)
	if a[0].ImpressionID == other[0].ImpressionID {
		t.Fatal("different workers must emit disjoint impression ids")
	}
	for _, e := range a {
		if err := e.Validate(); err != nil {
			t.Fatalf("generated invalid event %+v: %v", e, err)
		}
	}
}

func TestRawQuantile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := rawQuantile(sorted, 0.50); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := rawQuantile(sorted, 0.99); got != 9 {
		t.Fatalf("p99 = %v", got)
	}
	if got := rawQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

// TestRunLoadAgainstIngestServer is the end-to-end load harness check:
// an in-process server with the WAL on the request path (fsync=always,
// group commit) absorbs a concurrent mixed-traffic run with zero errors,
// and the store, the accepted counter, and a WAL replay all agree.
func TestRunLoadAgainstIngestServer(t *testing.T) {
	dir := t.TempDir()
	srv, err := StartIngestServer(collector.Config{
		Shards:      8,
		WAL:         wal.Options{Dir: dir, Fsync: wal.FsyncAlways, GroupCommit: true},
		DurableSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const events = 600
	rep, err := RunLoad(srv.URL, LoadOptions{
		Workers:   6,
		Events:    events,
		BatchSize: 3,
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("load run reported error: %v (%s)", err, rep)
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("load run not clean: %s", rep)
	}
	if rep.Accepted != events {
		t.Fatalf("accepted %d, want %d", rep.Accepted, events)
	}
	if rep.Eps <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 || rep.MaxLatency < rep.P99 {
		t.Fatalf("implausible report: %s", rep)
	}
	if got := srv.Store.Len(); got != events {
		t.Fatalf("store holds %d events, want %d", got, events)
	}
	if srv.Journal.WAL().GroupCommits() == 0 {
		t.Fatal("load never exercised the group committer")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	restored := beacon.NewStore()
	if _, err := beacon.ReplayWALDir(dir, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != events {
		t.Fatalf("WAL replay restored %d events, want %d", restored.Len(), events)
	}
}

// TestRunLoadAsyncQueuePath covers the qtag-server default shape: WAL
// behind a QueueSink, acks not waiting for fsync; Close drains the queue
// so nothing is lost.
func TestRunLoadAsyncQueuePath(t *testing.T) {
	dir := t.TempDir()
	srv, err := StartIngestServer(collector.Config{
		Shards: 4,
		WAL:    wal.Options{Dir: dir, Fsync: wal.FsyncOnBatch, GroupCommit: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(srv.URL, LoadOptions{Workers: 4, Events: 200, BatchSize: 5, Seed: 11})
	if err != nil {
		t.Fatalf("load run reported error: %v (%s)", err, rep)
	}
	if rep.Accepted != 200 || rep.Errors != 0 {
		t.Fatalf("load run not clean: %s", rep)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restored := beacon.NewStore()
	if _, err := beacon.ReplayWALDir(dir, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 200 {
		t.Fatalf("queue drain lost events: replay restored %d, want 200", restored.Len())
	}
}

// TestStartIngestServerNoWAL: memory-only servers must work too (the
// baseline the paper's §4 latency numbers are quoted against).
func TestStartIngestServerNoWAL(t *testing.T) {
	srv, err := StartIngestServer(collector.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Journal != nil {
		t.Fatal("no WAL dir but a journal was opened")
	}
	if got := srv.Store.Shards(); got != beacon.DefaultStoreShards {
		t.Fatalf("default shards = %d, want %d", got, beacon.DefaultStoreShards)
	}
	rep, err := RunLoad(srv.URL, LoadOptions{Workers: 2, Events: 50, Seed: 3})
	if err != nil || rep.Accepted != 50 {
		t.Fatalf("memory-only load failed: %v (%s)", err, rep)
	}
}
