package obs

import (
	"testing"
	"time"
)

// TestFakeClockFiresWhatFallsDue: Advance fires a timer once when its moment
// passes, a ticker once per Advance however many periods it spans and again a
// period later, an AfterFunc function before it returns, and nothing that was
// stopped; BlockUntil returns once enough timers are armed.
func TestFakeClockFiresWhatFallsDue(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewFakeClock(start)
	tick := c.NewTicker(time.Second)
	timer := c.NewTimer(2 * time.Second)
	stopped := c.NewTimer(time.Second)
	fired := 0
	c.AfterFunc(3*time.Second, func() { fired++ })
	stopped.Stop()
	c.BlockUntil(3)

	received := func(ch <-chan time.Time) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	c.Advance(time.Second - 1)
	if received(tick.C) || received(timer.C) {
		t.Fatal("fired before due")
	}
	c.Advance(1500*time.Millisecond + 1) // 2.5 s: the ticker spans two periods
	if !received(tick.C) || received(tick.C) || !received(timer.C) || received(stopped.C) || fired != 0 {
		t.Fatalf("at 2.5 s: want one tick, the timer, nothing stopped and no AfterFunc (fired %d)", fired)
	}
	c.Advance(500 * time.Millisecond) // 3 s: the ticker's next period, the AfterFunc
	if !received(tick.C) || fired != 1 || received(timer.C) {
		t.Fatalf("at 3 s: want a tick and the AfterFunc once, the timer spent (fired %d)", fired)
	}
	tick.Stop()
	c.Advance(time.Hour)
	if received(tick.C) || fired != 1 || !c.Now().Equal(start.Add(time.Hour+3*time.Second)) {
		t.Fatalf("after Stop: a tick or a second AfterFunc (fired %d), or the clock reads %v", fired, c.Now())
	}
}
