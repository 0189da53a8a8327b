package stream

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
	"weak"

	"cordial/internal/obs"
)

// TestActionSize pins the verdict record at 80 B: Kind 8, Bank 16
// (hbm.TestBankAddressSize), Rows 24, Class 8, Time 24. Every consumer copies
// it once per verdict, and the action queue's chunks and the server's store
// hold it by value.
func TestActionSize(t *testing.T) {
	if got := unsafe.Sizeof(Action{}); got > 80 {
		t.Errorf("Action is %d B, want at most 80", got)
	}
}

// testActionQueue builds a queue with counters of its own.
func testActionQueue(bound int) *actionQueue {
	reg := obs.NewRegistry()
	return newActionQueue(bound, reg.Counter("emitted", "emitted"), reg.Counter("dropped", "dropped"))
}

// seqAction is the action numbered i; actionSeq reads the number back.
func seqAction(i int) Action { return Action{Time: time.Unix(int64(i), 0)} }
func actionSeq(a Action) int { return int(a.Time.Unix()) }

// Reader commands.
const (
	readerPause = iota
	readerResume
	readerStop
)

// queueReader is what one schedule's readers saw, in receive order. For the
// i-th action received, before[i] and after[i] are the evictions counted just
// before the receive and just after it.
type queueReader struct {
	q             *actionQueue
	cmds          chan int
	got           []int
	before, after []uint64
	maxQueued     int
	closes        int
	closedEarly   string // set when the window closed before Close or before a full drain
	closeCalled   atomic.Bool
	pushed        atomic.Int64
}

// read receives until told to stop or the window closes. A paused reader
// takes only commands.
func (r *queueReader) read(done chan<- struct{}) {
	defer close(done)
	for {
		d0 := r.q.dropped.Value()
		select {
		case c := <-r.cmds:
			if c == readerStop || c == readerPause && <-r.cmds == readerStop {
				return
			}
		case a, ok := <-r.q.ch:
			if !ok {
				r.closes++
				if drained := int64(len(r.got)) + int64(r.q.dropped.Value()); !r.closeCalled.Load() || drained != r.pushed.Load() {
					r.closedEarly = fmt.Sprintf("window closed with Close called %v, %d of %d actions received or evicted",
						r.closeCalled.Load(), drained, r.pushed.Load())
				}
				return
			}
			// An eviction counts under the queue's lock; taking it orders every
			// eviction of an older action before this reading.
			r.q.mu.Lock()
			d1 := r.q.dropped.Value()
			r.q.mu.Unlock()
			r.got, r.before, r.after = append(r.got, actionSeq(a)), append(r.before, d0), append(r.after, d1)
			if len(r.got)%61 == 0 {
				r.maxQueued = max(r.maxQueued, r.q.queued())
			}
		}
	}
}

// TestActionQueueSchedules runs the action queue through seeded schedules:
// push bursts, a reader that pauses, resumes, stops and comes back, and Close
// with the reader in any of those states, at bounds on both sides of the
// window and past three chunks. Received actions must be the pushed ones in
// order minus exactly the evicted ones; every eviction must take the oldest
// outstanding action; emitted must equal received plus dropped; outstanding
// must never pass the bound; the window must close once, after Close and a
// full drain; and a drained queue must hold at most one chunk.
func TestActionQueueSchedules(t *testing.T) {
	bounds := []int{1, 2, actionWindow - 1, actionWindow, actionWindow + 1, actionWindow + 3*chunkActions + 7}
	const seeds = 500
	pushes, drops := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bound := bounds[rng.Intn(len(bounds))]
		q := testActionQueue(bound)
		r := &queueReader{q: q, cmds: make(chan int)}
		done := make(chan struct{})
		go r.read(done)
		state := readerResume
		maxQueued, next := 0, 0
		for steps := 4 + rng.Intn(12); steps > 0; steps-- {
			switch op := rng.Intn(10); {
			case op < 6:
				k := 1 + rng.Intn(min(bound, 300))
				if rng.Intn(4) == 0 {
					k = bound + rng.Intn(64) // reach the bound
				}
				for ; k > 0; k-- {
					r.pushed.Add(1)
					d0 := q.dropped.Value()
					q.push(seqAction(next))
					// With no receive in flight, nothing frees a slot behind
					// the push's back: one eviction admits one action.
					if d := q.dropped.Value() - d0; d > 1 && state != readerResume {
						t.Fatalf("seed %d, bound %d: push %d evicted %d actions with the reader idle", seed, bound, next, d)
					}
					next++
					if k%17 == 0 {
						maxQueued = max(maxQueued, q.queued())
					}
				}
				maxQueued = max(maxQueued, q.queued())
			case op < 8 && state == readerResume:
				r.cmds <- readerPause
				state = readerPause
			case op < 8 && state == readerPause:
				r.cmds <- readerResume
				state = readerResume
			case state == readerStop:
				done = make(chan struct{})
				go r.read(done)
				state = readerResume
			default:
				r.cmds <- readerStop
				<-done
				state = readerStop
			}
		}
		r.closeCalled.Store(true)
		q.close() // returns whatever the reader is doing
		switch state {
		case readerPause:
			r.cmds <- readerResume
		case readerStop:
			done = make(chan struct{})
			go r.read(done)
		}
		<-done

		fail := func(format string, args ...any) {
			t.Fatalf("seed %d, bound %d, %d pushed: %s", seed, bound, next, fmt.Sprintf(format, args...))
		}
		dropped, emitted := int(q.dropped.Value()), int(q.emitted.Value())
		for i, s := range r.got {
			if i > 0 && s <= r.got[i-1] {
				fail("received %d after %d", s, r.got[i-1])
			}
			// Evictions take the front, as receives do, so when action s is
			// received exactly the s-i unreceived actions older than it have
			// been evicted.
			if older := uint64(s - i); r.before[i] > older || r.after[i] < older {
				fail("action %d received with %d older ones evicted, while %d..%d evictions were counted", s, older, r.before[i], r.after[i])
			}
		}
		if len(r.got)+dropped != next || emitted != next {
			fail("%d received + %d dropped, %d emitted", len(r.got), dropped, emitted)
		}
		if r.closes != 1 || r.closedEarly != "" {
			fail("window closed %d times: %s", r.closes, r.closedEarly)
		}
		if m := max(maxQueued, r.maxQueued); m > bound {
			fail("%d outstanding", m)
		}
		q.mu.Lock()
		chunks := 0
		for c := q.head; c != nil; c = c.next {
			chunks++
		}
		if q.spare != nil {
			chunks++
		}
		q.mu.Unlock()
		if chunks > 1 || q.queued() != 0 {
			fail("drained queue holds %d chunks, %d actions", chunks, q.queued())
		}
		pushes, drops = pushes+next, drops+dropped
	}
	t.Logf("%d schedules, %d actions pushed, %d evicted", seeds, pushes, drops)
	if drops == 0 || drops == pushes {
		t.Errorf("not the coverage the test is for")
	}
}

// TestIdleActionMemory: an engine holds memory for the actions it has queued,
// not for its bound. Idle and closed, an engine bounded at 65 536 actions
// retains at most 256 KB more than one bounded at one action; reserving the
// bound was 10.5 MB.
func TestIdleActionMemory(t *testing.T) {
	retained := func(buffer int) int64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		e := newTestEngine(t, Config{Shards: 1, ActionBuffer: buffer})
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(e)
		return int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	}
	one, bounded := retained(1), retained(1<<16)
	t.Logf("idle engine: %d B retained at a bound of 1, %d B at 65 536", one, bounded)
	if bounded-one > 256<<10 {
		t.Errorf("a bound of 65 536 retains %d B more than a bound of 1, want at most 256 KB", bounded-one)
	}
}

// TestActionPushAllocs: with a reader that keeps up, a push allocates nothing.
func TestActionPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	q := testActionQueue(1 << 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range q.ch {
		}
	}()
	a := seqAction(1)
	if allocs := testing.AllocsPerRun(20000, func() { q.push(a) }); allocs != 0 {
		t.Errorf("a push allocates %v times, want 0", allocs)
	}
	q.close()
	<-done
}

// TestActionBacklogChurn: a standing backlog of three chunks, drained and
// refilled a chunk at a time, reuses its drained chunk: twelve rounds
// allocate at most one chunk.
func TestActionBacklogChurn(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	q := testActionQueue(actionWindow + 4*chunkActions)
	push := func(n int) {
		for ; n > 0; n-- {
			q.push(Action{})
		}
	}
	refilled := func() {
		for len(q.ch) < cap(q.ch) {
			runtime.Gosched()
		}
	}
	push(actionWindow + 3*chunkActions)
	refilled()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for round := 0; round < 12; round++ {
		for i := 0; i < chunkActions; i++ {
			<-q.ch
		}
		refilled()
		push(chunkActions)
	}
	runtime.ReadMemStats(&m1)
	if got, chunk := m1.TotalAlloc-m0.TotalAlloc, uint64(unsafe.Sizeof(actionChunk{})); got > chunk {
		t.Errorf("twelve rounds of churn allocated %d B, want at most one %d B chunk", got, chunk)
	}
	if q.dropped.Value() != 0 {
		t.Errorf("%d actions evicted below the bound", q.dropped.Value())
	}
	q.close()
	for range q.ch {
	}
}

// TestReceivedActionsPinNoSlab: once the actions carved from a rows slab have
// been received and dropped, nothing in the queue — window, overflow slots,
// the spare chunk, the pump's hand — keeps the slab alive.
func TestReceivedActionsPinNoSlab(t *testing.T) {
	q := testActionQueue(actionWindow + 2*chunkActions)
	slab := new([64]int)
	ref := weak.Make(slab)
	n := actionWindow + chunkActions + chunkActions/2
	for i := 0; i < n; i++ {
		j := i % len(slab)
		q.push(Action{Rows: slab[j : j+1 : j+1]})
	}
	slab = nil
	for i := 0; i < n; i++ {
		<-q.ch
	}
	for {
		q.mu.Lock()
		idle := q.held == 0
		q.mu.Unlock()
		if idle {
			break
		}
		runtime.Gosched()
	}
	runtime.GC()
	if ref.Value() != nil {
		t.Error("the rows slab outlives every action carved from it")
	}
	q.close()
	for range q.ch {
	}
}
