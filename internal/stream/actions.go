package stream

import (
	"sync"

	"cordial/internal/obs"
)

// The window holds at most 80 KB of Action (80 B each, TestActionSize): at 256
// slots, hot_banks' reader lagged past the window often enough to churn
// chunks. A chunk is 20 KB.
const (
	actionWindow = 1024
	chunkActions = 256
)

// actionQueue carries actions to the reader of Actions: a window channel, then
// chunks that a pump goroutine, started at the first overflow, feeds into it.
// The bound caps the window, the overflow and the action the pump holds in a
// send; a bound the window covers is the plain channel (DESIGN.md §12).
type actionQueue struct {
	ch               chan Action // the window
	bound            int
	emitted, dropped *obs.Counter

	mu      sync.Mutex
	work    sync.Cond // the pump waits for an overflow or for close
	moved   sync.Cond // push waits for the pump
	held    int       // 1 while the pump holds the overflow's old head in a send to ch
	pumping bool
	closed  bool

	// The overflow: head.acts[first:] to tail.acts[:end], n actions, one spare.
	head, tail, spare *actionChunk
	first, end, n     int
}

type actionChunk struct {
	acts [chunkActions]Action
	next *actionChunk
}

func newActionQueue(bound int, emitted, dropped *obs.Counter) *actionQueue {
	q := &actionQueue{ch: make(chan Action, min(bound, actionWindow)), bound: bound, emitted: emitted, dropped: dropped}
	q.work.L, q.moved.L = &q.mu, &q.mu
	return q
}

// push queues a, first evicting the oldest outstanding action, the window's
// head, at the bound. It may wait for the pump, never for the reader: each
// wait is for an action the pump can land in a window with room.
func (q *actionQueue) push(a Action) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.emitted.Inc()
	for {
		w := len(q.ch)
		n, room := w+q.n+q.held, w < cap(q.ch)
		switch {
		case q.held > 0 && room:
			q.moved.Wait() // the held action is landing; then it counts once
		case n >= q.bound:
			select {
			case <-q.ch:
				q.dropped.Inc()
				if q.held == 0 {
					continue
				}
			default:
				if q.n+q.held == 0 {
					continue // the reader emptied the window
				}
			}
			q.moved.Wait() // the pump lands its held action or refills the window
		case q.n+q.held == 0 && room:
			q.ch <- a // only push sends while the overflow is empty
			return
		default:
			q.pushOverflow(a)
			if !q.pumping {
				q.pumping = true
				go q.pump()
			}
			q.work.Signal()
			return
		}
	}
}

// pump moves the overflow's head into the window as the reader frees room,
// and closes the window once close has run and the overflow is empty.
func (q *actionQueue) pump() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.n > 0 && len(q.ch) < cap(q.ch) {
			q.ch <- q.popOverflow() // only the pump sends while the overflow is not empty
		}
		q.moved.Broadcast()
		switch {
		case q.n > 0: // the window is full: wait, unlocked, for the reader
			a := q.popOverflow()
			q.held = 1
			q.mu.Unlock()
			q.ch <- a
			q.mu.Lock()
			q.held = 0
		case q.closed:
			close(q.ch)
			return
		default:
			q.work.Wait()
		}
	}
}

// queued reports the actions outstanding.
func (q *actionQueue) queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ch) + q.n + q.held
}

// close ends intake; the window closes once the reader could drain it.
func (q *actionQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.work.Signal()
	if !q.pumping {
		close(q.ch)
	}
}

func (q *actionQueue) pushOverflow(a Action) {
	if q.tail == nil || q.end == chunkActions {
		c := q.spare
		if c == nil {
			c = new(actionChunk)
		}
		if q.tail == nil {
			q.head = c // first is 0 since the last pop
		} else {
			q.tail.next = c
		}
		q.tail, q.end, q.spare = c, 0, nil
	}
	q.tail.acts[q.end] = a
	q.end, q.n = q.end+1, q.n+1
}

func (q *actionQueue) popOverflow() Action {
	c := q.head
	a := c.acts[q.first]
	c.acts[q.first] = Action{} // a popped slot pins no rows slab
	q.first, q.n = q.first+1, q.n-1
	if q.first == chunkActions || q.n == 0 {
		q.head, q.first, c.next, q.spare = c.next, 0, nil, c
		if q.head == nil {
			q.tail = nil
		}
	}
	return a
}
