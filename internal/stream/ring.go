package stream

import "sync"

// eventRing is the bounded queue between ingest producers and a shard's
// single consumer. It replaces a buffered channel so both sides can move
// events in batches: the binary ingest path pushes a whole frame's worth
// of events per lock round and the consumer drains up to a batch per
// round, instead of paying one synchronised channel operation per event.
// Semantics match the channel it replaced: pushBatch blocks when full
// (IngestBlock backpressure), tryPushBatch sheds what does not fit
// (IngestDrop), and after close the consumer still drains everything
// already queued.
type eventRing struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []queued
	head     int // index of the oldest queued element
	n        int // live elements
	closed   bool
}

func newEventRing(capacity int) *eventRing {
	r := &eventRing{buf: make([]queued, capacity)}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// pushBatch appends every element of qs in order, blocking as needed. It
// returns false if the ring closed before the whole batch was queued.
func (r *eventRing) pushBatch(qs []queued) bool {
	r.mu.Lock()
	for len(qs) > 0 {
		for r.n == len(r.buf) && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return false
		}
		k := len(r.buf) - r.n
		if k > len(qs) {
			k = len(qs)
		}
		for i := 0; i < k; i++ {
			r.buf[(r.head+r.n+i)%len(r.buf)] = qs[i]
		}
		r.n += k
		qs = qs[k:]
		r.notEmpty.Signal()
	}
	r.mu.Unlock()
	return true
}

// tryPushBatch appends as many leading elements of qs as fit right now
// and returns how many were queued (IngestDrop sheds the rest).
func (r *eventRing) tryPushBatch(qs []queued) int {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	k := len(r.buf) - r.n
	if k > len(qs) {
		k = len(qs)
	}
	for i := 0; i < k; i++ {
		r.buf[(r.head+r.n+i)%len(r.buf)] = qs[i]
	}
	r.n += k
	r.mu.Unlock()
	if k > 0 {
		r.notEmpty.Signal()
	}
	return k
}

// popBatch moves up to len(dst) queued events into dst, blocking while
// the ring is empty. ok is false once the ring is closed and drained —
// the consumer's signal to exit.
func (r *eventRing) popBatch(dst []queued) (k int, ok bool) {
	r.mu.Lock()
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if r.n == 0 {
		r.mu.Unlock()
		return 0, false
	}
	k = r.n
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k; i++ {
		dst[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.head = (r.head + k) % len(r.buf)
	r.n -= k
	r.mu.Unlock()
	r.notFull.Broadcast()
	return k, true
}

// length reports the live element count (the queue-depth gauge).
func (r *eventRing) length() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// free reports how many elements fit right now (the IngestDrop admission
// check on the durable path, taken under the shard's ingest lock so it
// can only under-estimate: concurrent consumers only grow it).
func (r *eventRing) free() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf) - r.n
}

// close stops intake. Queued events remain poppable; blocked producers
// return false, and the consumer's popBatch returns ok=false once the
// ring is drained.
func (r *eventRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
}
