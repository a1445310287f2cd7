package beacon

import (
	"sort"
	"sync"
)

// CounterKey is the aggregation dimension tuple maintained incrementally
// by the store. Slicing queries (per campaign, per OS × site type) reduce
// over these keys, so they never scan raw events.
type CounterKey struct {
	CampaignID string
	Source     Source
	Type       EventType
	OS         string
	SiteType   string
	Exchange   string
	Country    string
}

// storeShard is one independently locked partition of the store: its own
// dedup map and its own aggregation counters, so concurrent Submits on
// different impressions never contend on a shared mutex. Read paths
// (Len, Events, Count, …) merge across shards under per-shard RLocks.
type storeShard struct {
	mu       sync.RWMutex
	events   map[string]Event
	counters map[CounterKey]int
}

// Store is an idempotent, thread-safe, in-memory event store with
// incremental aggregation counters, sharded by impression-ID hash so the
// ingest path scales with cores. It is the reference implementation of
// the DSP's "distributed monitoring infrastructure" (§5) collapsed to a
// single process; the HTTP Server exposes it over the wire.
type Store struct {
	shards []storeShard
	mask   uint32 // len(shards)-1; shard count is a power of two

	// observers are invoked, in registration order, for every first-seen
	// event while the event's shard lock is held — duplicates never reach
	// them. See AddObserver.
	observers []func(Event)
	// dupObservers are invoked, in registration order, for every
	// duplicate submission (same idempotency key as a stored event),
	// under the same shard lock. First-seen events never reach them; the
	// two hook sets partition every valid submission. See AddDupObserver.
	dupObservers []func(Event)
}

// DefaultStoreShards is the shard count NewStore picks.
const DefaultStoreShards = 16

// maxStoreShards bounds NewStoreWithShards; beyond this the per-shard
// fixed overhead dominates any contention win.
const maxStoreShards = 1024

// NewStore returns an empty store with DefaultStoreShards shards.
func NewStore() *Store { return NewStoreWithShards(DefaultStoreShards) }

// NewStoreWithShards returns an empty store partitioned into n shards,
// rounded up to the next power of two and clamped to [1, 1024]. One
// shard reproduces the seed single-lock store exactly (the equivalence
// property tests assert this); the shard count never changes observable
// behaviour, only contention.
func NewStoreWithShards(n int) *Store {
	if n < 1 {
		n = 1
	}
	if n > maxStoreShards {
		n = maxStoreShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{shards: make([]storeShard, size), mask: uint32(size - 1)}
	for i := range s.shards {
		s.shards[i].events = make(map[string]Event)
		s.shards[i].counters = make(map[CounterKey]int)
	}
	return s
}

// Shards returns the store's shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

// AddObserver appends a first-seen-event hook: fn is called exactly
// once per distinct idempotency key, under the event's shard lock, so
// for any one impression the calls are serialized in store-insertion
// order and atomic with the insertion itself. Duplicate submissions
// never fire it — an observer inherits the store's dedup for free,
// which is what lets the streaming aggregation and fraud-detection
// layers stay idempotent under at-least-once beacon delivery and WAL
// replay. Multiple observers fan out in registration order on every
// first-seen event; each sees exactly the same event stream.
//
// AddObserver must be called before the store starts ingesting (it is
// not synchronized against concurrent Submits), and fn must not call
// back into the store.
func (s *Store) AddObserver(fn func(Event)) { s.observers = append(s.observers, fn) }

// AddDupObserver appends a duplicate-submission hook: fn is called,
// under the event's shard lock, every time a valid submission is
// absorbed as a duplicate of an already-stored event. First-seen
// events never fire it. Idempotent delivery makes duplicates invisible
// to counters by design, so this hook is the only place duplicate
// *pressure* — HTTP retry storms, bot farms replaying captured beacons
// — is observable; internal/detect feeds its flood detector from it.
// The server journals every accepted submission (not just first-seen
// ones), so a WAL replay into an empty store re-fires dup hooks for
// the same submissions and duplicate statistics rebuild with the rest.
//
// Like AddObserver, it must be registered before ingest starts and fn
// must not call back into the store.
func (s *Store) AddDupObserver(fn func(Event)) { s.dupObservers = append(s.dupObservers, fn) }

// shardFor picks the shard for an event via the shared addressing hash
// (HashID): every event of one impression (and therefore every
// duplicate of one idempotency key) lands in the same shard. The same
// hash drives node selection in internal/cluster, so in-process and
// cross-node routing never disagree about an impression.
func (s *Store) shardFor(e Event) *storeShard {
	return &s.shards[HashID(e.ImpressionID)&s.mask]
}

// Submit validates and stores the event. Duplicate submissions (same
// idempotency key) are silently absorbed: at-least-once delivery from tags
// never inflates counters. Submit implements Sink.
func (s *Store) Submit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	// The key is built into a stack scratch buffer and the dup check is a
	// string(key) map lookup, which the compiler performs without
	// materializing the string — so the steady state (duplicate and
	// counter-only traffic) allocates nothing for keys. Only a first-seen
	// insert converts for real, because the map must own its key.
	var kb [96]byte
	key := e.AppendKey(kb[:0])
	sh := s.shardFor(e)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.events[string(key)]; dup {
		for _, fn := range s.dupObservers {
			fn(e)
		}
		return nil
	}
	sh.events[string(key)] = e
	sh.counters[CounterKey{
		CampaignID: e.CampaignID,
		Source:     e.Source,
		Type:       e.Type,
		OS:         e.Meta.OS,
		SiteType:   e.Meta.SiteType,
		Exchange:   e.Meta.Exchange,
		Country:    e.Meta.Country,
	}]++
	for _, fn := range s.observers {
		fn(e)
	}
	return nil
}

// Len returns the number of distinct stored events.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.events)
		sh.mu.RUnlock()
	}
	return n
}

// Events returns all stored events sorted by (campaign, impression,
// source, type, seq) for deterministic inspection. It copies; the result
// is safe to retain. The merge takes shard locks one at a time, so the
// result is a consistent snapshot only of each shard, not of the whole
// store — fine for an append-only event set.
func (s *Store) Events() []Event {
	out := make([]Event, 0, 64)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.events {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CampaignID != b.CampaignID {
			return a.CampaignID < b.CampaignID
		}
		if a.ImpressionID != b.ImpressionID {
			return a.ImpressionID < b.ImpressionID
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Seq < b.Seq
	})
	return out
}

// Count sums counters matching the predicate across all shards. A nil
// predicate matches everything.
func (s *Store) Count(match func(CounterKey) bool) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, c := range sh.counters {
			if match == nil || match(k) {
				n += c
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// EachCounter calls fn for every aggregation counter, shard by shard,
// under that shard's read lock, without copying; a key split across
// shards is visited once per shard. fn must not call into the store.
func (s *Store) EachCounter(fn func(CounterKey, int)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, c := range sh.counters {
			fn(k, c)
		}
		sh.mu.RUnlock()
	}
}

// Counters returns a merged copy of the aggregation counters.
func (s *Store) Counters() map[CounterKey]int {
	out := make(map[CounterKey]int)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.counters {
			out[k] += v
		}
		sh.mu.RUnlock()
	}
	return out
}

// CampaignIDs returns the distinct campaign ids present, sorted.
func (s *Store) CampaignIDs() []string {
	seen := make(map[string]bool)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.counters {
			seen[k.CampaignID] = true
		}
		sh.mu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Served returns the number of served impressions for a campaign ("" for
// all campaigns).
func (s *Store) Served(campaignID string) int {
	return s.Count(func(k CounterKey) bool {
		return k.Type == EventServed && (campaignID == "" || k.CampaignID == campaignID)
	})
}

// Loaded returns the number of impressions a solution checked in on
// (measured) for a campaign ("" for all).
func (s *Store) Loaded(campaignID string, src Source) int {
	return s.Count(func(k CounterKey) bool {
		return k.Type == EventLoaded && k.Source == src &&
			(campaignID == "" || k.CampaignID == campaignID)
	})
}

// InView returns the number of first-cycle in-view impressions for a
// solution and campaign ("" for all). Repeated cycles (Seq > 0) are not
// double counted because Submit dedupes on (impression, source, type,
// seq) and qtag/commercial tags report the criteria being met once.
func (s *Store) InView(campaignID string, src Source) int {
	return s.Count(func(k CounterKey) bool {
		return k.Type == EventInView && k.Source == src &&
			(campaignID == "" || k.CampaignID == campaignID)
	})
}
