package simclock

import (
	"testing"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Errorf("zero clock Now = %v", c.Now())
	}
	fired := false
	c.AfterFunc(time.Second, func() { fired = true })
	c.Advance(time.Second)
	if !fired {
		t.Error("timer did not fire")
	}
}

func TestAdvanceFiresInOrder(t *testing.T) {
	c := New()
	var order []int
	c.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("fire order = %v", order)
	}
	if c.Now() != 5*time.Second {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := New()
	var order []string
	c.AfterFunc(time.Second, func() { order = append(order, "a") })
	c.AfterFunc(time.Second, func() { order = append(order, "b") })
	c.AfterFunc(time.Second, func() { order = append(order, "c") })
	c.Advance(time.Second)
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("same-instant order = %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	c := New()
	var events []time.Duration
	c.AfterFunc(time.Second, func() {
		events = append(events, c.Now())
		c.AfterFunc(time.Second, func() {
			events = append(events, c.Now())
		})
	})
	c.Advance(3 * time.Second)
	if len(events) != 2 || events[0] != time.Second || events[1] != 2*time.Second {
		t.Errorf("nested events = %v", events)
	}
}

func TestClockAtCallbackTime(t *testing.T) {
	c := New()
	var at time.Duration = -1
	c.AfterFunc(700*time.Millisecond, func() { at = c.Now() })
	c.Advance(10 * time.Second)
	if at != 700*time.Millisecond {
		t.Errorf("callback saw Now = %v, want 700ms", at)
	}
}

func TestStop(t *testing.T) {
	c := New()
	fired := false
	timer := c.AfterFunc(time.Second, func() { fired = true })
	timer.Stop()
	if !timer.Stopped() {
		t.Error("Stopped() should be true")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestEvery(t *testing.T) {
	c := New()
	var ticks []time.Duration
	c.Every(100*time.Millisecond, func() { ticks = append(ticks, c.Now()) })
	c.Advance(350 * time.Millisecond)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(ticks), ticks)
	}
	for i, want := range []time.Duration{100, 200, 300} {
		if ticks[i] != want*time.Millisecond {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want*time.Millisecond)
		}
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	c := New()
	count := 0
	var ticker *Timer
	ticker = c.Every(time.Second, func() {
		count++
		if count == 2 {
			ticker.Stop()
		}
	})
	c.Advance(10 * time.Second)
	if count != 2 {
		t.Errorf("ticker fired %d times, want 2", count)
	}
}

func TestEveryPanicsOnZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Every(0, func() {})
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Advance(-time.Second)
}

func TestAfterFuncNegativeCoerced(t *testing.T) {
	c := New()
	fired := false
	c.AfterFunc(-time.Second, func() { fired = true })
	c.Advance(0)
	if !fired {
		t.Error("negative-delay timer should fire immediately")
	}
}

func TestAtAbsolute(t *testing.T) {
	c := New()
	c.Advance(5 * time.Second)
	var at time.Duration = -1
	c.At(7*time.Second, func() { at = c.Now() })
	// Past deadlines are coerced to now.
	var pastAt time.Duration = -1
	c.At(time.Second, func() { pastAt = c.Now() })
	c.Advance(5 * time.Second)
	if at != 7*time.Second {
		t.Errorf("At fired at %v", at)
	}
	if pastAt != 5*time.Second {
		t.Errorf("past At fired at %v", pastAt)
	}
}

func TestStep(t *testing.T) {
	c := New()
	var order []int
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	if !c.Step() {
		t.Fatal("Step should fire first timer")
	}
	if c.Now() != time.Second || len(order) != 1 || order[0] != 1 {
		t.Errorf("after first step: now=%v order=%v", c.Now(), order)
	}
	if !c.Step() {
		t.Fatal("Step should fire second timer")
	}
	if c.Step() {
		t.Error("Step with empty queue should return false")
	}
}

func TestPendingAndNextDeadline(t *testing.T) {
	c := New()
	if _, ok := c.NextDeadline(); ok {
		t.Error("empty clock should have no deadline")
	}
	a := c.AfterFunc(time.Second, func() {})
	c.AfterFunc(2*time.Second, func() {})
	if c.Pending() != 2 {
		t.Errorf("Pending = %d", c.Pending())
	}
	if at, ok := c.NextDeadline(); !ok || at != time.Second {
		t.Errorf("NextDeadline = %v, %v", at, ok)
	}
	a.Stop()
	if c.Pending() != 1 {
		t.Errorf("Pending after stop = %d", c.Pending())
	}
	if at, ok := c.NextDeadline(); !ok || at != 2*time.Second {
		t.Errorf("NextDeadline after stop = %v, %v", at, ok)
	}
}

func TestAdvanceToNoRewind(t *testing.T) {
	c := New()
	c.Advance(10 * time.Second)
	c.AdvanceTo(5 * time.Second)
	if c.Now() != 10*time.Second {
		t.Errorf("AdvanceTo rewound the clock: %v", c.Now())
	}
}

func TestWallTime(t *testing.T) {
	c := New()
	c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !c.WallTime().Equal(want) {
		t.Errorf("WallTime = %v, want %v", c.WallTime(), want)
	}
}

func TestManyTimersStress(t *testing.T) {
	c := New()
	fired := 0
	for i := 0; i < 10000; i++ {
		d := time.Duration(i%97) * time.Millisecond
		c.AfterFunc(d, func() { fired++ })
	}
	c.Advance(time.Second)
	if fired != 10000 {
		t.Errorf("fired %d of 10000", fired)
	}
	if c.Pending() != 0 {
		t.Errorf("Pending = %d after drain", c.Pending())
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	c := New()
	for i := 0; i < b.N; i++ {
		c.AfterFunc(time.Millisecond, func() {})
		c.Advance(time.Millisecond)
	}
}

func TestTicksCount(t *testing.T) {
	c := New()
	tk := c.NewTicks(100 * time.Millisecond)
	c.Advance(350 * time.Millisecond)
	if tk.Count() != 3 {
		t.Fatalf("Count = %d after 350ms, want 3", tk.Count())
	}
	c.AdvanceTo(400 * time.Millisecond) // a firing at the window's end counts
	if tk.Count() != 4 {
		t.Fatalf("Count = %d at 400ms, want 4", tk.Count())
	}
	c.Advance(time.Hour) // a long window is credited in closed form
	if want := uint64((time.Hour + 400*time.Millisecond) / (100 * time.Millisecond)); tk.Count() != want {
		t.Errorf("Count = %d after an hour, want %d", tk.Count(), want)
	}
}

// TestTicksSameInstantOrder: a callback sees exactly the firings an Every
// ticker registered at the same point would have fired before it. At a
// shared instant, whichever was (re-)armed first goes first; a ticker is
// re-armed at each firing, one interval before the next.
func TestTicksSameInstantOrder(t *testing.T) {
	c := New()
	tk := c.NewTicks(20 * time.Millisecond)
	var oneShot, nested uint64
	var periodic []uint64
	// Armed at 0: precedes the ticker's 100ms firing, armed at 80ms.
	c.AfterFunc(100*time.Millisecond, func() { oneShot = tk.Count() })
	// Armed at 90ms: follows it.
	c.AfterFunc(90*time.Millisecond, func() {
		c.AfterFunc(10*time.Millisecond, func() { nested = tk.Count() })
	})
	// Re-armed at 100ms and 200ms, each time before the ticker's re-arm
	// at 180ms and 280ms: it runs first at every boundary.
	c.Every(100*time.Millisecond, func() { periodic = append(periodic, tk.Count()) })
	c.Advance(300 * time.Millisecond)
	if oneShot != 4 || nested != 5 {
		t.Errorf("one-shots at 100ms saw %d and %d firings, want 4 and 5", oneShot, nested)
	}
	if len(periodic) != 3 || periodic[0] != 4 || periodic[1] != 9 || periodic[2] != 14 {
		t.Errorf("periodic reads %v, want [4 9 14]", periodic)
	}
	if tk.Count() != 15 {
		t.Errorf("Count = %d at 300ms, want 15", tk.Count())
	}
}

func TestTicksStop(t *testing.T) {
	c := New()
	tk := c.NewTicks(10 * time.Millisecond)
	c.AfterFunc(55*time.Millisecond, tk.Stop)
	c.Advance(time.Second)
	if tk.Count() != 5 {
		t.Errorf("Count = %d after Stop at 55ms, want 5", tk.Count())
	}
	tk.Stop() // double stop is safe
	if len(c.ticks) != 0 {
		t.Errorf("stopped ticker still registered: %d", len(c.ticks))
	}
}

// TestTicksStep: Step credits the firings before the callback it runs,
// and counted firings alone neither keep Step going nor move time.
func TestTicksStep(t *testing.T) {
	c := New()
	tk := c.NewTicks(10 * time.Millisecond)
	var seen uint64
	c.AfterFunc(35*time.Millisecond, func() { seen = tk.Count() })
	if c.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (tickers are not callbacks)", c.Pending())
	}
	if at, ok := c.NextDeadline(); !ok || at != 35*time.Millisecond {
		t.Errorf("NextDeadline = %v, %v", at, ok)
	}
	if !c.Step() || seen != 3 || c.Now() != 35*time.Millisecond {
		t.Fatalf("Step: seen %d at %v, want 3 at 35ms", seen, c.Now())
	}
	if c.Step() {
		t.Error("Step with only a ticker left should return false")
	}
	if c.Now() != 35*time.Millisecond || tk.Count() != 3 {
		t.Errorf("idle Step moved time to %v / count %d", c.Now(), tk.Count())
	}
}

func TestNewTicksPanicsOnZeroInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().NewTicks(0)
}

// TestTicksMatchEvery drives two clocks through the same randomized script
// of one-shot and periodic callbacks — on one clock the counted tickers
// are Ticks, on the other Every timers that increment a counter — and
// requires every callback to observe identical counts. Intervals share
// factors with the callback deadlines, so same-instant ties are frequent;
// callbacks also stop and re-arm tickers and schedule nested callbacks.
func TestTicksMatchEvery(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		counted := runTickScript(seed, false)
		reference := runTickScript(seed, true)
		if len(counted) != len(reference) {
			t.Fatalf("seed %d: %d observations vs %d", seed, len(counted), len(reference))
		}
		for i := range counted {
			if counted[i] != reference[i] {
				t.Fatalf("seed %d: observation %d = %v, reference %v", seed, i, counted[i], reference[i])
			}
		}
	}
}

// tickObservation is what one script callback saw.
type tickObservation struct {
	at     time.Duration
	id     int
	counts [2]uint64
}

// counter is a counted ticker under test: a Ticks, or an Every timer
// incrementing n.
type counter struct {
	ticks *Ticks
	timer *Timer
	base  uint64 // firings of stopped predecessors
	n     uint64
}

func (k *counter) start(c *Clock, interval time.Duration, reference bool) {
	if reference {
		k.timer = c.Every(interval, func() { k.n++ })
	} else {
		k.ticks = c.NewTicks(interval)
	}
}

func (k *counter) stop() {
	if k.timer != nil {
		k.timer.Stop()
	}
	if k.ticks != nil {
		k.base += k.ticks.Count()
		k.ticks.Stop()
	}
}

func (k *counter) count() uint64 {
	if k.ticks != nil {
		return k.base + k.ticks.Count()
	}
	return k.n
}

func runTickScript(seed uint64, reference bool) []tickObservation {
	// A tiny deterministic generator (xorshift) keeps the script
	// independent of every other package.
	state := seed*0x9E3779B97F4A7C15 + 1
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	c := New()
	var ks [2]counter
	intervals := []time.Duration{10, 20, 25, 50}
	ks[0].start(c, intervals[next(4)]*time.Millisecond, reference)
	ks[1].start(c, intervals[next(4)]*time.Millisecond, reference)
	var obs []tickObservation
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		id++
		me := id
		d := time.Duration(next(30)*5) * time.Millisecond
		action := next(10)
		fn := func() {
			obs = append(obs, tickObservation{at: c.Now(), id: me, counts: [2]uint64{ks[0].count(), ks[1].count()}})
			switch {
			case action == 0:
				k := &ks[next(2)]
				k.stop()
				k.start(c, intervals[next(4)]*time.Millisecond, reference)
			case action < 4 && depth < 3:
				schedule(depth + 1)
			}
		}
		if next(4) == 0 {
			var tm *Timer
			fires := 0
			tm = c.Every(time.Duration(1+next(4))*25*time.Millisecond, func() {
				fn()
				if fires++; fires == 3 {
					tm.Stop()
				}
			})
			return
		}
		c.AfterFunc(d, fn)
	}
	for i := 0; i < 12; i++ {
		schedule(0)
		c.Advance(time.Duration(next(8)*10) * time.Millisecond)
	}
	c.Advance(time.Second)
	obs = append(obs, tickObservation{at: c.Now(), id: -1, counts: [2]uint64{ks[0].count(), ks[1].count()}})
	return obs
}
