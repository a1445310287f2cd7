package faults_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/faults"
	"qtag/internal/simrand"
)

// TestChaosPipelineZeroLoss pushes 10k events through the full resilient
// client stack — QueueSink → CircuitBreaker → HTTPSink — against a real
// collection server reached through a fault-injecting RoundTripper
// (drops, 5xx with Retry-After, latency, and ambiguous partial
// failures). Below the queue-overflow threshold the pipeline must lose
// nothing: at-least-once retries plus idempotent ingestion land every
// event exactly once in the store.
func TestChaosPipelineZeroLoss(t *testing.T) {
	const total = 10000

	store := beacon.NewStore()
	srv := httptest.NewServer(beacon.NewServer(store))
	defer srv.Close()

	rt := faults.NewRoundTripper(nil, simrand.New(2019), faults.Profile{
		Drop:       0.15,
		Error:      0.15,
		RetryAfter: 0, // exercise the exponential backoff path
		Latency:    500 * time.Microsecond,
		Partial:    0.08,
	})
	httpSink := &beacon.HTTPSink{
		BaseURL:     srv.URL,
		Client:      &http.Client{Transport: rt},
		Retries:     8,
		Timeout:     5 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Jitter:      simrand.New(77).Float64,
	}
	breaker := beacon.NewCircuitBreaker(httpSink, 5, 20*time.Millisecond)
	queue := beacon.NewQueueSink(breaker, beacon.QueueOptions{
		Capacity:   total, // no overflow in this scenario
		MaxBatch:   25,    // many small batches → many chances to hit faults
		RetryDelay: 2 * time.Millisecond,
	})

	for i := 0; i < total; i++ {
		if err := queue.Submit(beacon.Event{
			ImpressionID: itoa(i),
			CampaignID:   "chaos",
			Source:       beacon.SourceQTag,
			Type:         beacon.EventLoaded,
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := queue.Close(ctx); err != nil {
		t.Fatalf("drain: %v (queue %s)", err, queue.Stats())
	}

	if store.Len() != total {
		t.Errorf("store has %d events, want %d (zero loss). queue: %s, wire: %s",
			store.Len(), total, queue.Stats(), rt.Stats())
	}
	st := queue.Stats()
	if st.Dropped != 0 || st.Failed != 0 {
		t.Errorf("unexpected client-side loss: %s", st)
	}
	if st.Flushed != total {
		t.Errorf("flushed = %d, want %d", st.Flushed, total)
	}
	wire := rt.Stats()
	if wire.Dropped == 0 || wire.Errored == 0 || wire.Partial == 0 {
		t.Errorf("chaos profile injected too little: %s", wire)
	}
	t.Logf("delivered %d events: http retried=%d, breaker tripped=%d rejected=%d, queue retried=%d, wire faults [%s]",
		total, httpSink.Retried(), breaker.Tripped(), breaker.Rejected(), st.Retried, wire)
}

// TestChaosPipelineOverflowAccounting drives the same stack against a
// collector that is hard-down (every request errors) with a tiny queue:
// above the overflow threshold events must be dropped *and counted* —
// the counters, not wishful thinking, describe the loss.
func TestChaosPipelineOverflowAccounting(t *testing.T) {
	const total = 2000
	const capacity = 64

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	httpSink := &beacon.HTTPSink{
		BaseURL:     srv.URL,
		Retries:     1,
		BackoffBase: time.Microsecond,
		BackoffMax:  time.Microsecond,
		Sleep:       func(time.Duration) {},
	}
	breaker := beacon.NewCircuitBreaker(httpSink, 3, time.Hour) // opens and stays open
	queue := beacon.NewQueueSink(breaker, beacon.QueueOptions{
		Capacity:   capacity,
		MaxBatch:   16,
		RetryDelay: time.Millisecond,
	})

	accepted := 0
	for i := 0; i < total; i++ {
		if err := queue.Submit(beacon.Event{
			ImpressionID: itoa(i),
			CampaignID:   "chaos",
			Source:       beacon.SourceQTag,
			Type:         beacon.EventLoaded,
		}); err == nil {
			accepted++
		}
	}

	st := queue.Stats()
	if st.Enqueued != int64(accepted) {
		t.Errorf("enqueued %d != accepted %d", st.Enqueued, accepted)
	}
	if st.Enqueued+st.Dropped != total {
		t.Errorf("enqueued %d + dropped %d != %d submitted", st.Enqueued, st.Dropped, total)
	}
	if st.Dropped < total-capacity-int64(total)/10 {
		// Nearly everything beyond capacity must have been shed; the
		// slack allows for batches in flight during the submit loop.
		t.Errorf("dropped = %d with capacity %d over %d submits", st.Dropped, capacity, total)
	}

	// Abandon the undeliverable remainder and verify total accounting.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := queue.Close(ctx); err == nil {
		t.Error("expected deadline error closing against a dead collector")
	}
	st = queue.Stats()
	if st.Flushed+st.Failed+st.Dropped != total {
		t.Errorf("accounting leak: flushed %d + failed %d + dropped %d != %d",
			st.Flushed, st.Failed, st.Dropped, total)
	}
	if breaker.State() != beacon.BreakerOpen {
		t.Errorf("breaker = %v, want open against a dead collector", breaker.State())
	}
}

// TestReplayJournalTornWrites reproduces the crash-durability scenario:
// a JSONL journal written through a TornWriter (writes silently
// truncated, the way a dying process tears its final flushes) must
// still replay, with the corrupt lines counted as skipped, and a double
// replay must be idempotent.
func TestReplayJournalTornWrites(t *testing.T) {
	const total = 400

	var file bytes.Buffer
	torn := faults.NewTornWriter(&file, simrand.New(9), 0.5)
	// Write the journal 25 lines at a time, the way a buffered journal
	// writer flushes, so many Writes (and therefore tears) happen.
	var chunk []byte
	for i := 0; i < total; i++ {
		line, err := json.Marshal(beacon.Event{
			ImpressionID: itoa(i),
			CampaignID:   "torn",
			Source:       beacon.SourceQTag,
			Type:         beacon.EventLoaded,
		})
		if err != nil {
			t.Fatal(err)
		}
		chunk = append(append(chunk, line...), '\n')
		if i%25 == 24 {
			if _, err := torn.Write(chunk); err != nil {
				t.Fatal(err)
			}
			chunk = chunk[:0]
		}
	}
	if torn.Tears() == 0 {
		t.Fatal("no tears injected; test is vacuous")
	}

	raw := file.Bytes()
	store := beacon.NewStore()
	first, err := beacon.ReplayJournal(bytes.NewReader(raw), store)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if first.Skipped == 0 {
		t.Error("torn journal replayed with zero skips")
	}
	if first.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if first.Replayed+first.Skipped > total {
		t.Errorf("replayed %d + skipped %d > %d written", first.Replayed, first.Skipped, total)
	}
	if store.Len() != first.Replayed {
		t.Errorf("store %d != replayed %d", store.Len(), first.Replayed)
	}

	// Double replay: identical stats, no double counting in the store.
	lenAfterFirst := store.Len()
	second, err := beacon.ReplayJournal(bytes.NewReader(raw), store)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if second != first {
		t.Errorf("second replay %+v != first %+v", second, first)
	}
	if store.Len() != lenAfterFirst {
		t.Errorf("store grew on double replay: %d → %d", lenAfterFirst, store.Len())
	}
}
