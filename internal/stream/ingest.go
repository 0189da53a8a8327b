package stream

import (
	"fmt"
	"time"

	"cordial/internal/mcelog"
)

// The ingest path. Every event enters the engine through IngestBatch:
// Ingest is a batch of one, IngestLog feeds chunks, both HTTP codecs hand
// it their decoded chunks. The contract it keeps is that a shard's queue
// order is the order its events arrived in and — with a journal — also
// their LSN order, because replay must reproduce exactly what the consumer
// saw.

// IngestPolicy selects what Ingest does when a shard queue is full. Both
// values are in use (cordial-serve -policy block|drop), so it stays an option.
type IngestPolicy int

const (
	// IngestBlock applies backpressure: Ingest waits for queue space.
	IngestBlock IngestPolicy = iota
	// IngestDrop sheds load: Ingest drops the event, counts it, and
	// returns ErrDropped.
	IngestDrop
)

// String names the policy.
func (p IngestPolicy) String() string {
	switch p {
	case IngestBlock:
		return "block"
	case IngestDrop:
		return "drop"
	default:
		return fmt.Sprintf("IngestPolicy(%d)", int(p))
	}
}

// batchScratch is the reusable working set of one IngestBatch call. Pooled
// so the steady-state ingest path allocates nothing.
type batchScratch struct {
	groups [][]queued // per shard: its events of the batch, in arrival order
	shard  []int32    // per event: its shard index, in arrival order (journaled path)
	drops  []int      // per shard: events shed by admission (journaled path)
	pos    []int      // per shard: cursor for arrival-order LSN assignment
	enc    []byte     // journal payload: the admitted events' records
}

// newBatchScratch sizes a working set to the shard count.
func (e *Engine) newBatchScratch() *batchScratch {
	return &batchScratch{
		groups: make([][]queued, len(e.shards)),
		drops:  make([]int, len(e.shards)),
		pos:    make([]int, len(e.shards)),
	}
}

// releaseScratch resets and pools a batch working set.
func (e *Engine) releaseScratch(sc *batchScratch) {
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
		sc.drops[i] = 0
		sc.pos[i] = 0
	}
	sc.shard = sc.shard[:0]
	sc.enc = sc.enc[:0]
	e.batchPool.Put(sc)
}

// Ingest routes one event to its bank's shard: IngestBatch of one. Under
// IngestBlock a full queue applies backpressure; under IngestDrop the event
// is shed and ErrDropped returned. Ingest returns ErrClosed after Close.
// Events for the same bank ingested from the same goroutine are processed
// in order. With durability configured the event is journaled before it is
// queued: a nil return means the event is on stable storage (subject to the
// fsync policy) and will survive a crash.
func (e *Engine) Ingest(ev mcelog.Event) error {
	one := [1]mcelog.Event{ev}
	_, dropped, err := e.IngestBatch(one[:])
	if err == nil && dropped > 0 {
		return ErrDropped
	}
	return err
}

// IngestLog feeds every event of a log through IngestBatch in chunks of
// mcelog.DefaultFrameEvents, returning the number accepted and the first
// error (load shedding is counted by the engine, not a caller error).
func (e *Engine) IngestLog(l *mcelog.Log) (accepted int, err error) {
	chunk := make([]mcelog.Event, 0, min(l.Len(), mcelog.DefaultFrameEvents))
	for i, n := 0, l.Len(); i < n; i++ {
		chunk = append(chunk, l.At(i))
		if len(chunk) == cap(chunk) || i == n-1 {
			got, _, ierr := e.IngestBatch(chunk)
			accepted += got
			if ierr != nil {
				return accepted, ierr
			}
			chunk = chunk[:0]
		}
	}
	return accepted, nil
}

// IngestBatch routes a batch of already-validated events. Events are
// grouped by shard preserving input order, so per-bank order is preserved
// (one bank always hashes to one shard, and shard queues are FIFO). With
// durability configured the whole admitted batch is journaled with one WAL
// append — one buffered write, at most one fsync — before any event is
// queued: a nil error means every accepted event is on stable storage.
// Under IngestDrop the part of a shard's group that does not fit its queue
// is shed and counted in dropped. A non-nil error means no event of the
// batch was accepted.
//
// Without a journal the path takes no lock beyond the queues' own: nothing
// orders events across producers except their queue position, and the
// queue assigns that. With a journal, queue order must equal LSN order
// within a shard, so the batch holds every touched shard's ingestMu across
// append + enqueue. All batches lock ascending by shard index (SwapModel
// too), so lock order is globally consistent; appends from batches on other
// shards land in the same WAL group-commit window and share the fsync.
func (e *Engine) IngestBatch(events []mcelog.Event) (accepted, dropped int, err error) {
	if len(events) == 0 {
		return 0, 0, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return 0, 0, ErrClosed
	}
	sc := e.batchPool.Get().(*batchScratch)
	defer e.releaseScratch(sc)
	journaled := e.wal != nil
	for _, ev := range events {
		// The one pack of the event: from here on the engine holds its record.
		q := queued{rec: mcelog.RecordOf(ev)}
		si := e.shardIndex(e.layout.key(&q.rec))
		if journaled { // only the journal step walks the batch a second time
			sc.shard = append(sc.shard, int32(si))
		}
		sc.groups[si] = append(sc.groups[si], q)
	}
	if journaled {
		for si, g := range sc.groups {
			if len(g) > 0 {
				e.shards[si].ingestMu.Lock()
				defer e.shards[si].ingestMu.Unlock()
			}
		}
		if dropped, err = e.journalBatch(sc); err != nil {
			return 0, 0, err
		}
	}
	for si, g := range sc.groups {
		if len(g) == 0 {
			continue
		}
		s := e.shards[si]
		if e.cfg.Policy == IngestDrop && !journaled {
			// Shed what does not fit right now. (A journaled group was
			// already trimmed to fit, before it was appended.)
			pushed := s.in.tryPushBatch(g)
			if shed := len(g) - pushed; shed > 0 {
				s.dropped.Add(uint64(shed))
				dropped += shed
			}
			accepted += pushed
			continue
		}
		// Close cannot close the ring while this call holds e.mu, so the
		// whole group is queued.
		t0 := time.Now()
		s.in.pushBatch(g)
		e.metrics.ingestWaitDur.ObserveSince(t0)
		accepted += len(g)
	}
	e.metrics.ingested.Add(uint64(accepted))
	return accepted, dropped, nil
}

// journalBatch is IngestBatch's journal step; the caller holds the touched
// shards' ingest locks. Admission comes BEFORE the append: under IngestDrop
// each shard's group is trimmed to its queue's free space first, because an
// event shed at ingest must never be journaled or replay would resurrect
// it. The trim is safe — the consumer only grows the free space and every
// other producer for the shard is excluded by the ingest lock — so the
// trimmed group is certain to fit when IngestBatch queues it.
//
// The admitted events are appended once, in ARRIVAL order, so a batch's LSN
// assignment is exactly what the same events ingested one at a time would
// get. Session snapshots embed LSN watermarks and the crash gate compares
// them byte-for-byte across ingest shapes; arrival order also keeps the
// assignment independent of the shard count, which recovery is allowed to
// change. A shard's admitted events are the first len(groups[si]) of its
// arrivals (admission trims the tail), tracked by the pos cursor; each
// queued entry holds its offset within the batch until the WAL's first LSN
// is added after the append. The payload is the admitted entries' records,
// each copied as it stands: nothing is packed again.
func (e *Engine) journalBatch(sc *batchScratch) (dropped int, err error) {
	if e.cfg.Policy == IngestDrop {
		for si, g := range sc.groups {
			if len(g) == 0 {
				continue
			}
			if free := e.shards[si].in.free(); len(g) > free {
				sc.drops[si] = len(g) - free
				dropped += sc.drops[si]
				sc.groups[si] = g[:free]
			}
		}
	}
	for _, si := range sc.shard {
		g := sc.groups[si]
		if sc.pos[si] == len(g) {
			continue // shed by admission
		}
		q := &g[sc.pos[si]]
		q.lsn = uint64(len(sc.enc) / mcelog.WireRecordSize)
		sc.pos[si]++
		sc.enc = q.rec.Append(sc.enc)
	}
	var first uint64
	if len(sc.enc) > 0 { // admission may have shed the whole batch
		if first, err = e.wal.AppendBatch(sc.enc, mcelog.WireRecordSize); err != nil {
			// Nothing journaled, nothing queued: reject rather than accept
			// events a crash would silently forget; the caller decides whether
			// to retry (shed events are not counted either — their fate was
			// never decided). The failure also flips /readyz: a daemon that
			// cannot persist intake should be rotated out of traffic.
			e.walAppendErrs.Add(1)
			e.lastAppendErr.Store(err.Error())
			return 0, fmt.Errorf("stream: journaling events: %w", err)
		}
		if last, _ := e.lastAppendErr.Load().(string); last != "" {
			e.lastAppendErr.Store("") // append works again: readiness restored
		}
	}
	for si, g := range sc.groups {
		for i := range g {
			g[i].lsn += first
		}
		if len(g) > 0 {
			e.shards[si].journaled = g[len(g)-1].lsn
		}
		if n := sc.drops[si]; n > 0 {
			e.shards[si].dropped.Add(uint64(n))
		}
	}
	return dropped, nil
}
