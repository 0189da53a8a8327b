package stream

import (
	"fmt"

	"cordial/internal/wal"
)

// Cluster session handoff moves per-bank session state between engines in
// different processes. The transfer unit is the pair the crash-recovery
// design already made portable:
//
//   - an engine snapshot payload (the exact format Snapshot persists),
//     restricted to the banks being moved for a live export; and
//   - a WAL record suffix (wal.Record, in the SOURCE journal's LSN
//     namespace) covering events the snapshot may not include.
//
// ImportSessions restores the sessions into a scratch shard state and replays
// the suffix over it through the shard step — the per-bank watermark and the
// snapshot floor rules boot-time recovery uses — then moves the banks into the
// shards with their watermarks set to the receiving shard's: imported state
// must never be compared against the LOCAL journal's older LSNs, which live in
// a different namespace, and the local journal may still hold records of the
// bank from before it last moved away. A post-import Snapshot persists the
// adopted sessions before the importer acknowledges the handoff, preserving
// the append-before-ack contract end to end: state is only ever acknowledged
// once it is on the receiving node's stable storage.
//
// Ownership discipline is the caller's job (the cluster control plane):
// the source must stop accepting the moved banks before ExportSessions,
// and the importer must not accept them until ImportSessions returns.

// ExportSessions serialises the sessions selected by filter (nil = all)
// into an engine snapshot payload. The engine keeps serving throughout;
// callers that need the export to cover every accepted event must Drain
// first (and have stopped intake for the filtered banks, or events
// arriving after the encode walk are silently left behind).
func (e *Engine) ExportSessions(filter func(bankKey uint64) bool) ([]byte, error) {
	payload, _, err := e.encodeSnapshot(filter)
	return payload, err
}

// ImportStats describes what ImportSessions did.
type ImportStats struct {
	// Sessions is the number of sessions adopted (installed into shards).
	Sessions int
	// Replayed counts WAL-suffix records folded into adopted sessions,
	// including those a degraded session only counts.
	Replayed int
	// Skipped counts suffix records dropped by the ownership filter, the
	// per-session watermark (already covered by the snapshot), or a
	// conflicting local session.
	Skipped int
	// Conflicts counts sessions in the payload that were NOT adopted
	// because this engine already holds a session for the bank. A non-zero
	// value means the handoff protocol's ownership sequencing was violated
	// somewhere; the local session wins and keeps serving.
	Conflicts int
	// Actions counts mitigation actions re-derived during suffix replay
	// and emitted on the engine's output channel (at-least-once, same as
	// boot-time recovery).
	Actions int
	// Quarantined counts suffix events whose replay panicked; the adopted
	// session is installed degraded, exactly as a live panic would leave it,
	// and the event counted on its shard's cordial_events_quarantined_total
	// and dead-lettered.
	Quarantined int
}

// ImportSessions adopts the sessions in an exported snapshot payload that
// pass the owns filter (nil = all), replays the accompanying WAL suffix
// through them, installs them into the engine's shards and — when this
// engine is durable — snapshots so the adopted state survives a local
// crash. Suffix LSNs, session watermarks and the payload's floor are
// interpreted in the SOURCE journal's namespace and discarded on install. A
// suffix record at or below the floor of a bank the payload lacks is refused,
// as replay refuses it: the source dropped the bank before it wrote the
// payload.
//
// The engine keeps serving its own banks throughout. Sessions for banks
// this engine already holds are skipped and counted as conflicts.
func (e *Engine) ImportSessions(payload []byte, suffix []wal.Record, owns func(bankKey uint64) bool) (ImportStats, error) {
	var st ImportStats
	active := e.activeEpoch()
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return st, ErrClosed
	}

	// An empty payload is a valid handoff from a source with no snapshot
	// (all of its history rides in the suffix).
	var hdr snapshotHeader
	var images []sessionImage
	if len(payload) > 0 {
		var err error
		if hdr, images, err = decodeSnapshotSessions(payload); err != nil {
			return st, err
		}
	}

	// Decode the suffix. Nothing is installed yet: a refused record refuses
	// the bundle. A swap record is skipped like another node's event: the
	// source's model swaps are its own history, the importer's model source
	// governs its own. A bank this engine already holds keeps its own history.
	held := func(key uint64) bool { _, ok := e.sessionByKey(key); return ok }
	events := make([]queued, 0, len(suffix))
	for _, sr := range suffix {
		rec, _, isSwap, derr := decodeJournalRecord(e.cfg.Profile, sr.Payload)
		if derr == nil && !isSwap {
			derr = rec.Event(e.cfg.Profile).Validate(e.cfg.Geometry) // a peer's bytes: checked as at the HTTP edge
		}
		if derr != nil {
			return st, fmt.Errorf("stream: decoding handoff suffix record %d: %w", sr.LSN, derr)
		}
		if key := e.layout.key(&rec); isSwap || owns != nil && !owns(key) || held(key) {
			st.Skipped++
			continue
		}
		events = append(events, queued{rec: rec, lsn: sr.LSN})
	}
	accepted := images[:0]
	for _, im := range images {
		switch {
		case owns != nil && !owns(im.key):
		case held(im.key):
			st.Conflicts++
		default:
			accepted = append(accepted, im)
		}
	}
	scratch, res, err := replayImport(e.layout, &imageLoader{resolve: e.strategyFor}, accepted, events, stepEnv{epochs: []modelEpoch{active}, floor: hdr.floor})
	if err != nil {
		return st, err
	}
	st.Skipped += res.refused
	st.Quarantined = len(res.dead)
	st.Replayed = len(events) - res.refused - len(res.dead)

	// Move the banks into the shards, re-checking for conflicts under each
	// shard's lock: a session that appeared locally since the first check wins
	// and the imported one is dropped.
	scratch.store.each(func(sl *slot) {
		s := e.shardFor(sl.key)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.store.find(sl.key) != nil {
			st.Conflicts++
			return
		}
		s.adopt(scratch, sl)
		st.Sessions++
	})

	// Dead letters and re-derived actions go out after the move, so a consumer
	// that inspects the bank behind one always finds it.
	for i := range res.dead {
		res.dead[i].LSN = 0 // a position in the source's journal, not this one's
	}
	e.deliver(res)
	st.Actions = len(res.acts)

	// Persist before the caller acknowledges the handoff: without this, a
	// crash after ack would lose state the source already gave away.
	if e.wal != nil && st.Sessions > 0 {
		if _, err := e.Snapshot(); err != nil {
			return st, fmt.Errorf("stream: persisting imported sessions: %w", err)
		}
	}
	return st, nil
}

// replayImport is an import's replay, which needs no engine: the images
// restored into a scratch shard state exactly as a restore places them, then
// the suffix run through one step over it under env — the active epoch alone
// and the payload's floor. Events at or below a bank's source watermark are
// already inside its image and are refused; a bank the suffix gives birth to
// (it first erred after the source's last checkpoint) binds the active epoch,
// for the suffix's positions are the source's. Every bank keeps its source
// watermark until adopt moves it.
func replayImport(layout recordLayout, load *imageLoader, images []sessionImage, suffix []queued, env stepEnv) (*shardState, stepResult, error) {
	scratch := newShardState(layout)
	scratch.store.reserve(len(images))
	for i := range images {
		if err := scratch.restore(load, &images[i]); err != nil {
			return nil, stepResult{}, err
		}
	}
	return scratch, scratch.step(env, suffix), nil
}

// adopt moves the bank in from's slot sl into st, in the form it has there,
// with its watermark set to st's appliedLSN: from here on the bank's history
// lives in st's journal namespace, and whatever st's journal already holds of
// the bank — records folded before the bank last moved away — is refused by
// a replay rather than folded over the imported history. A stored bank's
// chain is collected into from's scratch.
func (st *shardState) adopt(from *shardState, sl *slot) {
	vc := from.totals.version(sl.ver())
	ver := st.totals.versionIndex(vc.version, vc.strategy)
	if sl.form() == slotHeap {
		bs := from.store.session(sl)
		bs.lastLSN = st.appliedLSN
		st.addHeap(sl.key, ver, bs)
		return
	}
	v := from.view(sl)
	v.lastLSN = st.appliedLSN
	from.chain = from.store.log(sl, from.chain)
	st.addQuiet(sl.key, ver, &v, from.chain)
}

// DropSessions removes the sessions selected by filter (nil = all) and,
// when the engine is durable, snapshots so the removal sticks across a
// restart: replay holds a snapshot authoritative to its floor, so it refuses
// the journal's records of the dropped banks, and a bank imported back later
// starts from its import, not from them (adopt). It is the final step of a
// handoff: once the importer has acknowledged the moved banks, the source
// drops its now-inert copies so a later move back does not collide with
// stale local state. Events for the dropped banks must already be fenced off
// by the ownership filter — DropSessions does not stop intake. A call made
// while the last checkpoint stands failed snapshots even when it drops
// nothing, so that retrying a drop whose snapshot failed persists it: the
// banks are gone from memory, but not yet from the directory.
func (e *Engine) DropSessions(filter func(bankKey uint64) bool) (int, error) {
	dropped := 0
	for _, s := range e.shards {
		s.mu.Lock()
		s.store.each(func(sl *slot) {
			if filter == nil || filter(sl.key) {
				s.drop(sl)
				dropped++
			}
		})
		s.mu.Unlock()
	}
	if failed, _ := e.lastSnapErr.Load().(string); e.wal != nil && (dropped > 0 || failed != "") {
		e.settle()
		if _, err := e.Snapshot(); err != nil {
			return dropped, fmt.Errorf("stream: persisting session drop: %w", err)
		}
	}
	return dropped, nil
}

// settle brings every shard's appliedLSN up to the last record queued to any
// shard as of the call. With every ingest lock held no record is between
// append and queue, so each shard's own last record then bounds what it was
// given; once the shard has folded that far, no record of its lies between
// there and the end, and it is complete to the end. (Recovery left every
// shard complete to the journal it replayed.) The next snapshot's floor then
// passes every record of a bank dropped before the call, however idle or busy
// the other shards are. It waits on the consumers' progress, shard by shard in
// index order.
func (e *Engine) settle() {
	last := make([]uint64, len(e.shards))
	var end uint64
	for i, s := range e.shards { // ascending, the batch-ingest order
		s.ingestMu.Lock()
		last[i] = s.journaled
		end = max(end, last[i])
	}
	for _, s := range e.shards {
		s.ingestMu.Unlock()
	}
	i := 0
	e.await(0, func() bool {
		for ; i < len(e.shards); i++ {
			s := e.shards[i]
			s.mu.Lock()
			done := s.appliedLSN >= last[i]
			if done {
				s.appliedLSN = max(s.appliedLSN, end)
			}
			s.mu.Unlock()
			if !done {
				return false
			}
		}
		return true
	})
}
