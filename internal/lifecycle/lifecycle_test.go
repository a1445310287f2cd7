package lifecycle

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/simrand"
)

var t0 = time.Unix(1700000000, 0).UTC()

func ev(src beacon.Source, typ beacon.EventType, seq int, at time.Duration) beacon.Event {
	return beacon.Event{ImpressionID: "i", CampaignID: "c", Source: src, Type: typ, Seq: seq, At: t0.Add(at)}
}

// totals sums a stream of deltas per source, resolving ServedFirst's
// NoServe un-counts against the sources present — what any consumer
// folding the deltas would hold.
type totals struct {
	Created, Served, Paired int
	DwellSum                time.Duration
	PerSource               map[beacon.Source]*[5]int // source-first, loaded, viewed, no-load, orphan-out
	NoServe                 map[beacon.Source]int
}

func newTotals() *totals {
	return &totals{PerSource: map[beacon.Source]*[5]int{}, NoServe: map[beacon.Source]int{}}
}

func (t *totals) fold(im *Impression, e beacon.Event, d Delta) {
	if d.Created {
		t.Created++
	}
	if d.ServedFirst {
		t.Served++
		for _, s := range im.Sources {
			t.NoServe[s.Source]--
		}
	}
	if d.Paired {
		t.Paired++
		t.DwellSum += d.Dwell
	}
	if e.Source == "" {
		return
	}
	c := t.PerSource[e.Source]
	if c == nil {
		c = &[5]int{}
		t.PerSource[e.Source] = c
	}
	for i, on := range []bool{d.SourceFirst, d.LoadedFirst, d.ViewedFirst} {
		if on {
			c[i]++
		}
	}
	c[3] += d.NoLoad
	c[4] += d.OrphanOut
	t.NoServe[e.Source] += d.NoServe
}

// state is an order-free rendering of one impression's working state.
func state(im *Impression) string {
	if im == nil {
		return "<nil>"
	}
	var parts []string
	for _, s := range im.Sources {
		var pend []string
		for _, c := range s.pending {
			pend = append(pend, fmt.Sprintf("%d/%v/%d", c.seq, c.out, c.at.UnixNano()))
		}
		sort.Strings(pend)
		parts = append(parts, fmt.Sprintf("%s:l=%v,v=%v,p=%v", s.Source, s.Loaded, s.Viewed, pend))
	}
	sort.Strings(parts)
	return fmt.Sprintf("served=%v %v", im.Served, parts)
}

// run folds events in order into a fresh table and returns the final
// state and the summed deltas.
func run(events []beacon.Event) (string, *totals) {
	tot := newTotals()
	tab := New(Options{TTL: -1}, tot.fold)
	for _, e := range events {
		tab.Observe(e, t0)
	}
	return state(tab.Lookup("c", "i")), tot
}

// checkOrderInsensitive asserts every given order of events yields the
// same state and totals, and that the summed violations equal the
// violations the final state still holds.
func checkOrderInsensitive(t *testing.T, events []beacon.Event, orders [][]int) {
	t.Helper()
	wantState, wantTot := run(events)
	for _, order := range orders {
		perm := make([]beacon.Event, len(order))
		for i, j := range order {
			perm[i] = events[j]
		}
		gotState, gotTot := run(perm)
		if gotState != wantState || !reflect.DeepEqual(gotTot, wantTot) {
			t.Fatalf("order %v diverges:\n state %s\n  want %s\n totals %+v\n   want %+v",
				order, gotState, wantState, gotTot, wantTot)
		}
	}

	tab := New(Options{TTL: -1}, nil)
	for _, e := range events {
		tab.Observe(e, t0)
	}
	im := tab.Lookup("c", "i")
	for _, s := range im.Sources {
		noServe := 0
		if !im.Served {
			noServe = 1
		}
		noLoad := 0
		if s.Viewed && !s.Loaded {
			noLoad = 1
		}
		c := wantTot.PerSource[s.Source]
		if wantTot.NoServe[s.Source] != noServe || c[3] != noLoad || c[4] != len(s.UnpairedOut()) {
			t.Fatalf("%s: summed violations (no-serve %d, no-load %d, orphan-out %d) != outstanding state %s",
				s.Source, wantTot.NoServe[s.Source], c[3], c[4], state(im))
		}
	}
}

// randomImpression draws one impression's distinct event set: a
// served event, and per source a loaded check-in and up to three
// visibility cycles, each half present at random.
func randomImpression(rng *simrand.RNG) []beacon.Event {
	var events []beacon.Event
	if rng.Bool(0.7) {
		events = append(events, ev("", beacon.EventServed, 0, 0))
	}
	for _, src := range []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial} {
		if rng.Bool(0.7) {
			events = append(events, ev(src, beacon.EventLoaded, 0, time.Duration(rng.Intn(500))*time.Millisecond))
		}
		cycles := rng.Intn(4)
		for seq := 0; seq < cycles; seq++ {
			in := time.Duration(rng.Intn(5000)) * time.Millisecond
			if rng.Bool(0.8) {
				events = append(events, ev(src, beacon.EventInView, seq, in))
			}
			if rng.Bool(0.8) {
				// Some out-of-views precede their in-view on the clock:
				// their dwell clamps to zero.
				events = append(events, ev(src, beacon.EventOutOfView, seq, in+time.Duration(rng.Intn(4000)-1000)*time.Millisecond))
			}
		}
	}
	return events
}

// TestOrderInsensitive is the table's core property: any permutation
// of an impression's events gives the same final state and the same
// summed deltas.
func TestOrderInsensitive(t *testing.T) {
	rng := simrand.New(1).Fork("lifecycle-order")
	for n := 0; n < 300; n++ {
		events := randomImpression(rng)
		var orders [][]int
		for k := 0; k < 6; k++ {
			order := make([]int, len(events))
			for i := range order {
				order[i] = i
			}
			for i := len(order) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			orders = append(orders, order)
		}
		checkOrderInsensitive(t, events, orders)
	}
}

// FuzzLifecycle checks the same property on fuzzer-chosen event sets:
// each input byte picks one event (type, source, seq and a timestamp
// offset); keys repeat, and the first occurrence of each wins, as the
// deduplicating store would. Forward, reversed and rotated arrival
// must agree.
func FuzzLifecycle(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte{0x33, 0x73, 0x22, 0x01})
	f.Add([]byte{0xff, 0x7e, 0x3d, 0x5c, 0x9b, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		types := []beacon.EventType{beacon.EventServed, beacon.EventLoaded, beacon.EventInView, beacon.EventOutOfView}
		seen := map[string]bool{}
		var events []beacon.Event
		for i, b := range data {
			typ := types[b&3]
			var src beacon.Source
			if typ != beacon.EventServed {
				src = []beacon.Source{beacon.SourceQTag, beacon.SourceCommercial}[(b>>2)&1]
			}
			e := ev(src, typ, int(b>>3)&3, time.Duration(int(b>>5)*700-i*50)*time.Millisecond)
			if !seen[e.Key()] {
				seen[e.Key()] = true
				events = append(events, e)
			}
		}
		if len(events) == 0 {
			return
		}
		n := len(events)
		rev, rot := make([]int, n), make([]int, n)
		for i := range rev {
			rev[i] = n - 1 - i
			rot[i] = (i + n/2) % n
		}
		checkOrderInsensitive(t, events, [][]int{rev, rot})
	})
}

func TestDeltas(t *testing.T) {
	tab := New(Options{TTL: -1}, nil)
	obs := func(e beacon.Event) Delta { return tab.Observe(e, t0) }

	d := obs(ev(beacon.SourceQTag, beacon.EventInView, 0, time.Second))
	want := Delta{Created: true, SourceFirst: true, ViewedFirst: true, NoServe: 1, NoLoad: 1}
	if d != want {
		t.Fatalf("first in-view = %+v, want %+v", d, want)
	}
	if d = obs(ev(beacon.SourceQTag, beacon.EventLoaded, 0, 0)); d != (Delta{LoadedFirst: true, NoLoad: -1}) {
		t.Fatalf("late loaded = %+v", d)
	}
	if d = obs(ev(beacon.SourceQTag, beacon.EventOutOfView, 1, 0)); d != (Delta{OrphanOut: 1}) {
		t.Fatalf("orphan out = %+v", d)
	}
	if d = obs(ev(beacon.SourceQTag, beacon.EventInView, 1, 2*time.Second)); d != (Delta{Paired: true, OrphanOut: -1}) {
		t.Fatalf("late in-view = %+v (skewed pair must clamp to 0)", d)
	}
	if d = obs(ev(beacon.SourceQTag, beacon.EventOutOfView, 0, 4*time.Second)); d != (Delta{Paired: true, Dwell: 3 * time.Second}) {
		t.Fatalf("pairing out-of-view = %+v", d)
	}
	if d = obs(ev("", beacon.EventServed, 0, 0)); d != (Delta{ServedFirst: true}) {
		t.Fatalf("late served = %+v", d)
	}
	im := tab.Lookup("c", "i")
	if !im.Served || im.Source(beacon.SourceCommercial) != nil || len(im.Source(beacon.SourceQTag).UnpairedOut()) != 0 {
		t.Fatalf("state = %s", state(im))
	}
	if !im.LastTouch.Equal(t0) {
		t.Fatalf("last touch = %v", im.LastTouch)
	}
	if tab.Lookup("c", "other") != nil {
		t.Fatal("lookup of an unseen impression must be nil")
	}
}

func served(imp string) beacon.Event {
	return beacon.Event{ImpressionID: imp, CampaignID: "c", Type: beacon.EventServed, At: t0}
}

func TestSweepEvictsIdle(t *testing.T) {
	tab := New(Options{TTL: time.Minute}, nil)
	tab.Observe(served("old"), t0)
	tab.Observe(served("new"), t0.Add(50*time.Second))
	if n := tab.Sweep(t0.Add(time.Minute)); n != 1 {
		t.Fatalf("swept %d, want 1", n)
	}
	if tab.Open() != 1 || tab.Evicted() != 1 || tab.PressureEvicted() != 0 {
		t.Fatalf("open=%d evicted=%d pressure=%d", tab.Open(), tab.Evicted(), tab.PressureEvicted())
	}
	// A late event re-opens the impression from scratch.
	if d := tab.Observe(served("old"), t0.Add(2*time.Minute)); !d.Created || !d.ServedFirst {
		t.Fatalf("re-opened delta = %+v", d)
	}
	if New(Options{TTL: -1}, nil).Sweep(t0.Add(time.Hour)) != 0 {
		t.Fatal("TTL<0 must disable the sweep")
	}
}

func TestMaxOpenEvictsColdestSparingNew(t *testing.T) {
	tab := New(Options{Shards: 1, MaxOpen: 2}, nil)
	for i, imp := range []string{"a", "b", "c", "d"} {
		tab.Observe(served(imp), t0.Add(time.Duration(i)*time.Second))
	}
	if tab.Open() != 2 || tab.PressureEvicted() != 2 || tab.Evicted() != 2 {
		t.Fatalf("open=%d pressure=%d evicted=%d", tab.Open(), tab.PressureEvicted(), tab.Evicted())
	}
	if tab.Lookup("c", "c") == nil || tab.Lookup("c", "d") == nil || tab.Lookup("c", "a") != nil {
		t.Fatal("pressure eviction must drop the coldest and keep the newest")
	}
	// MaxOpen 1 in one shard: the only other key is the victim, the
	// newcomer always survives.
	one := New(Options{Shards: 1, MaxOpen: 1}, nil)
	one.Observe(served("x"), t0)
	one.Observe(served("y"), t0)
	if one.Lookup("c", "y") == nil || one.Open() != 1 {
		t.Fatal("the inserting impression must be spared")
	}
}

func TestShardsRoundUp(t *testing.T) {
	if n := len(New(Options{Shards: 5}, nil).shards); n != 8 {
		t.Fatalf("shards = %d, want 8", n)
	}
	if n := len(New(Options{}, nil).shards); n != 16 {
		t.Fatalf("default shards = %d, want 16", n)
	}
}

// TestObserveAllocs pins the observer path's allocation budget: a
// follow-up event on an open impression allocates nothing.
func TestObserveAllocs(t *testing.T) {
	tab := New(Options{TTL: -1}, func(*Impression, beacon.Event, Delta) {})
	tab.Observe(ev(beacon.SourceQTag, beacon.EventLoaded, 0, 0), t0)
	e := ev("", beacon.EventServed, 0, 0)
	if n := testing.AllocsPerRun(100, func() { tab.Observe(e, t0) }); n != 0 {
		t.Fatalf("follow-up Observe allocates %.1f/op, want 0", n)
	}
}
