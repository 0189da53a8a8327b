package obs

import (
	"slices"
	"sync"
	"time"
)

// Clock is the serving path's one time source: the engine, the cluster tier,
// the lifecycle loop and the model registry read the time and arm every
// ticker, timer and retry backoff through it. SystemClock is the wall clock
// and the default wherever a Clock is nil; a FakeClock moves only when a test
// advances it.
type Clock interface {
	Now() time.Time
	NewTicker(d time.Duration) *Timer
	NewTimer(d time.Duration) *Timer
	AfterFunc(d time.Duration, f func()) *Timer // its Timer's C is nil
}

// Timer is an armed ticker or timer: a ticker sends the time on C every
// period, dropping a tick its reader has not taken when the next falls due,
// as time.Ticker does; a timer sends once, or calls its AfterFunc function.
// Stop disarms it, and does not wait for an AfterFunc function under way.
type Timer struct {
	C    <-chan time.Time
	Stop func()
}

// SystemClock is the wall clock.
type SystemClock struct{}

func (SystemClock) Now() time.Time { return time.Now() }

func (SystemClock) NewTicker(d time.Duration) *Timer {
	t := time.NewTicker(d)
	return &Timer{t.C, t.Stop}
}

func (SystemClock) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{t.C, func() { t.Stop() }}
}

func (SystemClock) AfterFunc(d time.Duration, f func()) *Timer {
	t := time.AfterFunc(d, f)
	return &Timer{Stop: func() { t.Stop() }}
}

// FakeClock is a Clock that moves only when Advance is called, so a test
// makes a heartbeat, a sweep or a timeout happen without waiting for it.
type FakeClock struct {
	mu     sync.Mutex
	armed  sync.Cond // broadcast whenever a timer is armed
	now    time.Time
	timers []*fakeTimer
}

// fakeTimer is one armed ticker (period > 0) or timer. It sends on ch, or
// calls fn when ch is nil.
type fakeTimer struct {
	when   time.Time
	period time.Duration
	ch     chan time.Time
	fn     func()
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	c := &FakeClock{now: start}
	c.armed.L = &c.mu
	return c
}

func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *FakeClock) NewTicker(d time.Duration) *Timer { return c.arm(d, d, nil) }

func (c *FakeClock) NewTimer(d time.Duration) *Timer { return c.arm(d, 0, nil) }

func (c *FakeClock) AfterFunc(d time.Duration, f func()) *Timer { return c.arm(d, 0, f) }

// arm adds a timer due d from now, with a channel unless it calls fn.
func (c *FakeClock) arm(d, period time.Duration, fn func()) *Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{when: c.now.Add(d), period: period, fn: fn}
	if fn == nil {
		t.ch = make(chan time.Time, 1)
	}
	c.timers = append(c.timers, t)
	c.armed.Broadcast()
	return &Timer{t.ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.timers = slices.DeleteFunc(c.timers, func(x *fakeTimer) bool { return x == t })
	}}
}

// Advance moves the clock forward by d and fires every timer due by then, in
// the order they fall due; a ticker fires once however many periods d spans.
// AfterFunc functions run on the caller's goroutine before Advance returns.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	slices.SortStableFunc(c.timers, func(a, b *fakeTimer) int { return a.when.Compare(b.when) })
	var fns []func()
	kept := c.timers[:0]
	for _, t := range c.timers {
		if t.when.After(c.now) {
			kept = append(kept, t)
			continue
		}
		if t.fn != nil {
			fns = append(fns, t.fn)
		} else {
			select {
			case t.ch <- c.now:
			default: // the last tick is still unread
			}
		}
		if t.period > 0 {
			t.when = t.when.Add(t.period * (c.now.Sub(t.when)/t.period + 1))
			kept = append(kept, t)
		}
	}
	clear(c.timers[len(kept):])
	c.timers = kept
	c.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// BlockUntil waits until at least n tickers and timers are armed, so that a
// test does not advance the clock before the code under test has armed its
// own.
func (c *FakeClock) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.armed.Wait()
	}
}
