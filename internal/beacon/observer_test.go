package beacon_test

import (
	"fmt"
	"sync"
	"testing"

	. "qtag/internal/beacon"
)

// TestStoreObserverFirstSeenOnly: the observer fires exactly once per
// distinct idempotency key, never for duplicates or invalid events —
// the contract the streaming aggregator's idempotency rests on.
func TestStoreObserverFirstSeenOnly(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	seen := map[string]int{}
	store.AddObserver(func(e Event) {
		mu.Lock()
		seen[e.Key()]++
		mu.Unlock()
	})

	e := Event{ImpressionID: "i", CampaignID: "c", Type: EventServed}
	if err := store.Submit(e); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < 5; i++ {
		store.Submit(e) // duplicates
	}
	store.Submit(Event{Type: EventServed}) // invalid: no ids

	if len(seen) != 1 || seen[e.Key()] != 1 {
		t.Fatalf("observer calls = %v, want exactly one for %q", seen, e.Key())
	}
}

// TestStoreObserverConcurrentExactlyOnce: under concurrent duplicate
// submission across shards, every distinct key is observed exactly once
// (the shard lock serializes observer calls per impression).
func TestStoreObserverConcurrentExactlyOnce(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	seen := map[string]int{}
	store.AddObserver(func(e Event) {
		mu.Lock()
		seen[e.Key()]++
		mu.Unlock()
	})

	const keys, workers = 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				store.Submit(Event{
					ImpressionID: fmt.Sprintf("imp-%d", i),
					CampaignID:   "c",
					Type:         EventServed,
				})
			}
		}()
	}
	wg.Wait()
	if len(seen) != keys {
		t.Fatalf("distinct keys observed = %d, want %d", len(seen), keys)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %q observed %d times", k, n)
		}
	}
	if store.Len() != keys {
		t.Fatalf("store len = %d", store.Len())
	}
}

// TestStoreAddObserverFanOut: multiple observers each see every
// first-seen event exactly once, in registration order, and a
// duplicate submission reaches none of them.
func TestStoreAddObserverFanOut(t *testing.T) {
	store := NewStore()
	var order []string
	store.AddObserver(func(e Event) { order = append(order, "first:"+e.Key()) })
	store.AddObserver(func(e Event) { order = append(order, "second:"+e.Key()) })

	e := Event{ImpressionID: "i", CampaignID: "c", Type: EventServed}
	if err := store.Submit(e); err != nil {
		t.Fatalf("submit: %v", err)
	}
	store.Submit(e) // duplicate: neither observer fires

	want := []string{"first:" + e.Key(), "second:" + e.Key()}
	if len(order) != len(want) || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("fan-out order = %v, want %v", order, want)
	}
}

// TestStoreDupObserver: the duplicate hook fires exactly for absorbed
// duplicates — never for first-seen or invalid events — so first-seen
// and duplicate hooks partition every valid submission.
func TestStoreDupObserver(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	first, dups := 0, 0
	store.AddObserver(func(Event) { mu.Lock(); first++; mu.Unlock() })
	store.AddDupObserver(func(Event) { mu.Lock(); dups++; mu.Unlock() })

	e := Event{ImpressionID: "i", CampaignID: "c", Type: EventServed}
	if err := store.Submit(e); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for i := 0; i < 4; i++ {
		store.Submit(e)
	}
	store.Submit(Event{Type: EventServed}) // invalid: reaches neither hook

	if first != 1 || dups != 4 {
		t.Fatalf("first=%d dups=%d, want 1 and 4", first, dups)
	}
}

// TestStoreDupObserverConcurrent: under concurrent duplicate pressure,
// first-seen + duplicate hook counts always sum to the number of valid
// submissions — nothing double-fires, nothing is lost.
func TestStoreDupObserverConcurrent(t *testing.T) {
	store := NewStore()
	var mu sync.Mutex
	first, dups := 0, 0
	store.AddObserver(func(Event) { mu.Lock(); first++; mu.Unlock() })
	store.AddDupObserver(func(Event) { mu.Lock(); dups++; mu.Unlock() })

	const keys, workers = 100, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				store.Submit(Event{
					ImpressionID: fmt.Sprintf("imp-%d", i),
					CampaignID:   "c",
					Type:         EventServed,
				})
			}
		}()
	}
	wg.Wait()
	if first != keys {
		t.Fatalf("first-seen observations = %d, want %d", first, keys)
	}
	if first+dups != keys*workers {
		t.Fatalf("first+dups = %d, want %d", first+dups, keys*workers)
	}
}
