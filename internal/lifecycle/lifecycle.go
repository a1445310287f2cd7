// Package lifecycle is the one per-impression state machine behind the
// streaming report (internal/aggregate), the streaming fraud detectors
// (internal/detect) and the batch auditor (internal/audit): the public
// rule set the paper asks anyone to be able to re-derive from the
// beacon log, written once.
//
// A Table holds, per open (campaign, impression), whether it was served
// and, per measurement source, whether it loaded, whether it was viewed
// and the unpaired halves of its Seq-keyed visibility cycles. Each event
// becomes a Delta of +1/−1 adjustments, handed to the consumer's Fold
// under the impression's shard lock; the adjustments net out, so a
// consumer's sums depend only on the final event set, never on arrival
// order. Working state is bounded by a TTL sweep and a MaxOpen pressure
// cap; eviction freezes a consumer's sums and a late event re-opens the
// impression from scratch. DESIGN.md §19 has the rules, the lock order
// and the eviction contract.
package lifecycle

import (
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/beacon"
)

// Options tunes a Table.
type Options struct {
	// Shards is the lock-stripe count, rounded up to a power of two
	// (default 16, matching the beacon store).
	Shards int
	// TTL evicts an impression after this much arrival-clock idle time
	// (default 15m; <0 disables eviction). It must exceed the longest
	// served→last-beacon gap, or a late beacon re-opens the impression
	// and its first-of-kind deltas fire again.
	TTL time.Duration
	// MaxOpen caps open impressions across all shards (0: unbounded).
	// An insert past the cap evicts the least-recently-touched
	// impression in the same shard.
	MaxOpen int
}

// Delta is what one event changed on its impression.
type Delta struct {
	Created     bool // the impression is first seen
	ServedFirst bool // its first served event
	SourceFirst bool // the first event from the event's source
	LoadedFirst bool // the source's first loaded check-in
	ViewedFirst bool // the source's first in-view
	// Paired reports a completed in-view/out-of-view cycle; Dwell is
	// its span, clamped at zero against client clock skew.
	Paired bool
	Dwell  time.Duration

	// The sequence violations of the event's source, counted while
	// outstanding (+1 when one appears, −1 when the missing event
	// arrives):
	//
	//	NoServe    a source reported before served; ServedFirst resolves
	//	           it for every source in Impression.Sources (−1 each)
	//	NoLoad     in-view before the source's loaded check-in
	//	OrphanOut  an out-of-view cycle whose in-view has not arrived
	NoServe, NoLoad, OrphanOut int
}

// Fold consumes one event's Delta. The table calls it with the
// impression's shard lock held, after updating the impression's state;
// consumers nest their own row locks inside (imp → row, always). It
// should be a method value bound at construction, not a per-event
// closure.
type Fold func(im *Impression, e beacon.Event, d Delta)

// cycle is one unpaired half of a visibility cycle.
type cycle struct {
	seq int
	at  time.Time
	out bool // the out-of-view half
}

// SourceState is one measurement source's progress on an impression.
type SourceState struct {
	Source         beacon.Source
	Loaded, Viewed bool
	pending        []cycle // unpaired halves; a completed pair is removed
}

// UnpairedOut returns the Seqs of the out-of-view cycles still waiting
// for their in-view: the source's outstanding OrphanOut violations.
func (s *SourceState) UnpairedOut() []int {
	var seqs []int
	for _, c := range s.pending {
		if c.out {
			seqs = append(seqs, c.seq)
		}
	}
	return seqs
}

// pair completes cycle seq with the opposite half when it is pending,
// returning the dwell; otherwise it stores this half.
func (s *SourceState) pair(seq int, at time.Time, out bool) (time.Duration, bool) {
	for i, c := range s.pending {
		if c.seq == seq && c.out != out {
			s.pending[i] = s.pending[len(s.pending)-1]
			s.pending = s.pending[:len(s.pending)-1]
			if out {
				return dwellOf(c.at, at), true
			}
			return dwellOf(at, c.at), true
		}
	}
	s.pending = append(s.pending, cycle{seq: seq, at: at, out: out})
	return 0, false
}

// dwellOf is the dwell of one in-view→out-of-view cycle; negative spans
// (client clock skew) clamp to zero.
func dwellOf(in, out time.Time) time.Duration {
	return max(out.Sub(in), 0)
}

// Impression is the working state of one open (campaign, impression).
// Consumers read it inside their Fold and write only Label.
type Impression struct {
	// Label is consumer state carried with the impression and dropped
	// with it (aggregate keeps its format bucket here).
	Label     string
	Served    bool
	LastTouch time.Time // arrival clock; drives TTL and pressure eviction
	Sources   []SourceState
}

// Source returns the state of source s, or nil if s never reported.
func (im *Impression) Source(s beacon.Source) *SourceState {
	for i := range im.Sources {
		if im.Sources[i].Source == s {
			return &im.Sources[i]
		}
	}
	return nil
}

// apply folds a valid, first-seen event into the state and returns the
// transitions it caused.
func (im *Impression) apply(e *beacon.Event) Delta {
	var d Delta
	if e.Type == beacon.EventServed {
		d.ServedFirst = !im.Served
		im.Served = true
		return d
	}
	s := im.Source(e.Source)
	if s == nil {
		if im.Sources == nil {
			im.Sources = make([]SourceState, 0, 2)
		}
		im.Sources = append(im.Sources, SourceState{Source: e.Source})
		s = &im.Sources[len(im.Sources)-1]
		d.SourceFirst = true
		if !im.Served {
			d.NoServe = 1
		}
	}
	switch e.Type {
	case beacon.EventLoaded:
		if !s.Loaded {
			s.Loaded, d.LoadedFirst = true, true
			if s.Viewed {
				d.NoLoad = -1
			}
		}
	case beacon.EventInView:
		if !s.Viewed {
			s.Viewed, d.ViewedFirst = true, true
			if !s.Loaded {
				d.NoLoad = 1
			}
		}
		if d.Dwell, d.Paired = s.pair(e.Seq, e.At, false); d.Paired {
			d.OrphanOut = -1
		}
	case beacon.EventOutOfView:
		if d.Dwell, d.Paired = s.pair(e.Seq, e.At, true); !d.Paired {
			d.OrphanOut = 1
		}
	}
	return d
}

// shard is one lock-striped partition of the open-impression map.
type shard struct {
	mu   sync.Mutex
	open map[string]*Impression
}

// Table is the lock-striped open-impression table. All methods are
// safe for concurrent use.
type Table struct {
	opts   Options
	fold   Fold
	shards []shard
	mask   uint32

	open, evicted atomic.Int64
	pressure      atomic.Int64 // the evictions forced by MaxOpen
}

// New returns an empty table handing every Delta to fold (nil: no
// consumer; the caller reads the state with Lookup).
func New(opts Options, fold Fold) *Table {
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.TTL == 0 {
		opts.TTL = 15 * time.Minute
	}
	size := 1
	for size < opts.Shards {
		size <<= 1
	}
	t := &Table{opts: opts, fold: fold, shards: make([]shard, size), mask: uint32(size - 1)}
	for i := range t.shards {
		t.shards[i].open = make(map[string]*Impression)
	}
	return t
}

// shardOf builds the key campaign|impression into buf and returns it
// with its shard.
func (t *Table) shardOf(buf []byte, campaign, impression string) ([]byte, *shard) {
	k := append(append(append(buf, campaign...), '|'), impression...)
	return k, &t.shards[fnv1a(k)&t.mask]
}

// fnv1a is beacon.HashID's FNV-1a over bytes, so lookups never
// materialize the key string.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Observe folds one first-seen, valid event into its impression at
// arrival time now, hands the Delta to the fold under the shard lock
// and returns it. Events of one impression must arrive serialized; the
// beacon store's observer hook guarantees both.
func (t *Table) Observe(e beacon.Event, now time.Time) Delta {
	var buf [128]byte
	k, sh := t.shardOf(buf[:0], e.CampaignID, e.ImpressionID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	im, ok := sh.open[string(k)]
	if !ok {
		im = &Impression{}
		sh.open[string(k)] = im
	}
	im.LastTouch = now
	d := im.apply(&e)
	d.Created = !ok
	if t.fold != nil {
		t.fold(im, e, d)
	}
	if d.Created {
		if n := t.open.Add(1); t.opts.MaxOpen > 0 && n > int64(t.opts.MaxOpen) {
			t.evictColdestLocked(sh, im)
		}
	}
	return d
}

// evictColdestLocked drops the least-recently-touched impression in sh,
// sparing keep (the one that just went over the cap: evicting the
// impression known to be active would be pure churn). The scan is per
// shard, so the cap is approximate: a shard holding only keep evicts
// nothing, and the working set converges as traffic spreads.
func (t *Table) evictColdestLocked(sh *shard, keep *Impression) {
	var coldest string
	var coldestIm *Impression
	for k, im := range sh.open {
		if im != keep && (coldestIm == nil || im.LastTouch.Before(coldestIm.LastTouch)) {
			coldest, coldestIm = k, im
		}
	}
	if coldestIm == nil {
		return
	}
	delete(sh.open, coldest)
	t.open.Add(-1)
	t.evicted.Add(1)
	t.pressure.Add(1)
}

// Sweep drops every impression idle for at least the TTL as of now and
// returns how many it evicted. Unpaired cycles of an evicted impression
// never complete.
func (t *Table) Sweep(now time.Time) int {
	if t.opts.TTL < 0 {
		return 0
	}
	evicted := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, im := range sh.open {
			if now.Sub(im.LastTouch) >= t.opts.TTL {
				delete(sh.open, k)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	t.evicted.Add(int64(evicted))
	t.open.Add(-int64(evicted))
	return evicted
}

// Lookup returns the open impression (campaign, impression), or nil.
// The state is the table's own: read it only once Observe can no
// longer touch that impression (audit reads a quiesced table).
func (t *Table) Lookup(campaign, impression string) *Impression {
	var buf [128]byte
	k, sh := t.shardOf(buf[:0], campaign, impression)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.open[string(k)]
}

// Open returns how many impressions currently hold working state.
func (t *Table) Open() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.open)
		sh.mu.Unlock()
	}
	return n
}

// Evicted returns how many impressions eviction dropped (TTL sweeps
// plus MaxOpen pressure).
func (t *Table) Evicted() int64 { return t.evicted.Load() }

// PressureEvicted returns the evictions forced by MaxOpen.
func (t *Table) PressureEvicted() int64 { return t.pressure.Load() }
