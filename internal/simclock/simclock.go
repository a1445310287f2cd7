// Package simclock implements the discrete-event virtual clock that drives
// every time-dependent component of the Q-Tag simulator.
//
// Nothing in the simulator sleeps: frame schedulers, viewability dwell
// timers and user-behaviour scripts all register callbacks on a *Clock, and
// experiments advance virtual time explicitly. This keeps multi-million-
// impression campaign simulations fast and — together with package
// simrand — bit-for-bit reproducible.
//
// Callbacks fire in timestamp order; callbacks scheduled for the same
// instant fire in registration order (FIFO), which gives deterministic
// interleaving of, for example, a frame paint and a dwell-timer expiry.
//
// A periodic event that has no side effect beyond being counted (a
// compositor frame) is better expressed as a Ticks: it occupies the same
// place in that order as an Every timer would, but its firings are
// credited in closed form, without a heap operation or a callback each.
package simclock

import (
	"container/heap"
	"math"
	"time"
)

// Epoch is the wall-clock instant corresponding to virtual time zero. It
// only matters when virtual timestamps are exported in wire formats.
var Epoch = time.Date(2019, time.December, 9, 0, 0, 0, 0, time.UTC)

// Clock is a virtual clock. The zero value is ready to use and starts at
// virtual time 0. Clock is not safe for concurrent use; the simulator is
// single-threaded by design (see package doc).
type Clock struct {
	now    time.Duration
	queue  timerQueue
	ticks  []*Ticks // live counted tickers
	nextID uint64
	seq    uint64
}

// New returns a clock positioned at virtual time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from the epoch.
func (c *Clock) Now() time.Duration { return c.now }

// WallTime returns the current virtual time as an absolute instant,
// anchored at Epoch.
func (c *Clock) WallTime() time.Time { return Epoch.Add(c.now) }

// Timer is a handle to a scheduled callback. Stop cancels it.
type Timer struct {
	id       uint64
	at       time.Duration
	seq      uint64
	interval time.Duration // 0 for one-shot timers
	fn       func()
	stopped  bool
	index    int // heap index, -1 when not queued
}

// Stop cancels the timer. It is safe to call multiple times and from
// within the timer's own callback.
func (t *Timer) Stop() { t.stopped = true }

// Stopped reports whether Stop has been called.
func (t *Timer) Stopped() bool { return t.stopped }

// AfterFunc schedules fn to run once, d from now. A non-positive d runs on
// the next Advance/Step at the current instant.
func (c *Clock) AfterFunc(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return c.schedule(c.now+d, 0, fn)
}

// At schedules fn to run at the given absolute virtual time. Times in the
// past are coerced to "now".
func (c *Clock) At(at time.Duration, fn func()) *Timer {
	if at < c.now {
		at = c.now
	}
	return c.schedule(at, 0, fn)
}

// Every schedules fn to run periodically with the given interval, first
// firing one interval from now. The interval must be positive.
func (c *Clock) Every(interval time.Duration, fn func()) *Timer {
	if interval <= 0 {
		panic("simclock: Every with non-positive interval")
	}
	return c.schedule(c.now+interval, interval, fn)
}

func (c *Clock) schedule(at, interval time.Duration, fn func()) *Timer {
	c.nextID++
	c.seq++
	t := &Timer{id: c.nextID, at: at, seq: c.seq, interval: interval, fn: fn, index: -1}
	heap.Push(&c.queue, t)
	return t
}

// Advance moves virtual time forward by d, firing every due callback in
// order. Callbacks may schedule further callbacks; those within the window
// also fire. Advance panics on negative d.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: Advance with negative duration")
	}
	c.AdvanceTo(c.now + d)
}

// AdvanceTo moves virtual time forward to the absolute instant t (no-op if
// t is in the past), firing every due callback in order and crediting
// every due Ticks firing.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		next, ok := c.peek()
		if !ok || next.at > t {
			break
		}
		c.credit(next.at, next.seq)
		c.popAndFire(next)
	}
	// Every firing at or before t precedes "the end of the window".
	c.credit(t, math.MaxUint64)
	if t > c.now {
		c.now = t
	}
}

// Step fires the single next pending callback, advancing the clock to its
// deadline and crediting the Ticks firings ordered before it. It returns
// false when no callbacks are pending; counted tickers alone do not keep
// Step going, and time does not move then.
func (c *Clock) Step() bool {
	next, ok := c.peek()
	if !ok {
		return false
	}
	c.credit(next.at, next.seq)
	c.popAndFire(next)
	return true
}

// Pending returns the number of scheduled (non-stopped) callbacks. Counted
// tickers have no callback and are not included.
func (c *Clock) Pending() int {
	n := 0
	for _, t := range c.queue {
		if !t.stopped {
			n++
		}
	}
	return n
}

// NextDeadline returns the virtual time of the next pending callback; ok is
// false when no callback is scheduled. Counted tickers are not included.
func (c *Clock) NextDeadline() (at time.Duration, ok bool) {
	next, ok := c.peek()
	if !ok {
		return 0, false
	}
	return next.at, true
}

// peek returns the earliest live timer, discarding stopped ones.
func (c *Clock) peek() (*Timer, bool) {
	for c.queue.Len() > 0 {
		t := c.queue[0]
		if t.stopped {
			heap.Pop(&c.queue)
			continue
		}
		return t, true
	}
	return nil, false
}

func (c *Clock) popAndFire(t *Timer) {
	heap.Pop(&c.queue)
	if t.at > c.now {
		c.now = t.at
	}
	if t.interval > 0 {
		// Re-arm before firing so the callback can Stop the ticker.
		t.at += t.interval
		c.seq++
		t.seq = c.seq
		heap.Push(&c.queue, t)
	}
	t.fn()
}

// Ticks is a periodic ticker that runs no callback and only counts its
// firings (see NewTicks).
type Ticks struct {
	clock    *Clock
	at       time.Duration // deadline of the next firing
	seq      uint64        // sequence of the next firing
	interval time.Duration
	count    uint64
}

// NewTicks starts a counted ticker that fires every interval, first one
// interval from now. Each firing takes the place in the clock's order that
// an Every timer registered at this point would take (see credit), so a
// callback that reads Count sees every firing ordered before it,
// same-instant ties included, and none after. The interval must be
// positive.
func (c *Clock) NewTicks(interval time.Duration) *Ticks {
	if interval <= 0 {
		panic("simclock: NewTicks with non-positive interval")
	}
	c.seq++
	t := &Ticks{clock: c, at: c.now + interval, seq: c.seq, interval: interval}
	c.ticks = append(c.ticks, t)
	return t
}

// Count returns the number of firings so far.
func (t *Ticks) Count() uint64 { return t.count }

// Stop ends the ticker; Count keeps its final value. It is safe to call
// multiple times.
func (t *Ticks) Stop() {
	ticks := t.clock.ticks
	for i, x := range ticks {
		if x == t {
			copy(ticks[i:], ticks[i+1:])
			ticks[len(ticks)-1] = nil
			t.clock.ticks = ticks[:len(ticks)-1]
			return
		}
	}
}

// before reports whether the event (at, seq) is ordered before (bAt, bSeq).
func before(at time.Duration, seq uint64, bAt time.Duration, bSeq uint64) bool {
	return at < bAt || (at == bAt && seq < bSeq)
}

// credit counts every Ticks firing ordered before the event (at, seq),
// in closed form. A seq of math.MaxUint64 stands for "after every event at
// this instant".
//
// A ticker's pending firing keeps the sequence it took when re-armed;
// every later firing in the run is re-armed with a fresh sequence, larger
// than any existing one, so it precedes the event only at a strictly
// earlier deadline — or at the same deadline when the bound is
// open-ended. The sequences the run consumes advance the clock's counter
// exactly as re-arming Every timers would. With several tickers, their
// fresh sequences are handed out ticker by ticker rather than interleaved
// in time; only ticker-versus-ticker ties could tell, and tickers run no
// code.
func (c *Clock) credit(at time.Duration, seq uint64) {
	for _, t := range c.ticks {
		if !before(t.at, t.seq, at, seq) {
			continue
		}
		span := at - t.at
		if seq != math.MaxUint64 {
			span--
		}
		n := 1 + uint64(max(span, 0)/t.interval)
		t.count += n
		t.at += time.Duration(n) * t.interval
		c.seq += n
		t.seq = c.seq
	}
}

// timerQueue is a min-heap ordered by (deadline, registration sequence).
type timerQueue []*Timer

func (q timerQueue) Len() int { return len(q) }

func (q timerQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q timerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *timerQueue) Push(x any) {
	t := x.(*Timer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*q = old[:n-1]
	return t
}
