package stream

import (
	"fmt"

	"cordial/internal/core"
	"cordial/internal/hbm"
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
// ImportSessions replays the suffix against the decoded sessions using the
// same per-session watermark rule boot-time recovery uses, then installs
// the sessions with their watermark reset to zero — imported state must
// never be compared against the LOCAL journal's LSNs, which live in a
// different namespace. A post-import Snapshot persists the adopted
// sessions before the importer acknowledges the handoff, preserving the
// append-before-ack contract end to end: state is only ever acknowledged
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
	// Replayed counts WAL-suffix records folded into adopted sessions.
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
	// session is installed degraded, exactly as a live panic would leave it.
	Quarantined int
}

// ImportSessions adopts the sessions in an exported snapshot payload that
// pass the owns filter (nil = all), replays the accompanying WAL suffix
// through them, installs them into the engine's shards and — when this
// engine is durable — snapshots so the adopted state survives a local
// crash. Suffix LSNs and session watermarks are interpreted in the SOURCE
// journal's namespace and discarded on install.
//
// The engine keeps serving its own banks throughout. Sessions for banks
// this engine already holds are skipped and counted as conflicts.
func (e *Engine) ImportSessions(payload []byte, suffix []wal.Record, owns func(bankKey uint64) bool) (ImportStats, error) {
	var st ImportStats
	if strat := e.activeEpoch().strategy; strat != nil {
		if _, ok := strat.(core.DurableStrategy); !ok {
			return st, fmt.Errorf("stream: import requires a durable strategy, have %T", strat)
		}
	}
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return st, ErrClosed
	}

	// An empty payload is a valid handoff from a source with no snapshot
	// (all of its history rides in the suffix).
	var images []sessionImage
	if len(payload) > 0 {
		var err error
		if _, images, err = decodeSnapshotSessions(payload); err != nil {
			return st, err
		}
	}

	// Decode the suffix. Nothing is installed yet: a refused record refuses
	// the bundle. A swap record is skipped like another node's event: the
	// source's model swaps are its own history, the importer's model source
	// governs its own.
	events := make([]queued, 0, len(suffix))
	touched := make(map[uint64]bool) // banks the suffix has events for
	for _, sr := range suffix {
		rec, _, isSwap, derr := decodeJournalRecord(sr.Payload)
		if derr == nil && !isSwap {
			derr = rec.Event().Validate(e.cfg.Geometry) // a peer's bytes: checked as at the HTTP edge
		}
		if derr != nil {
			return st, fmt.Errorf("stream: decoding handoff suffix record %d: %w", sr.LSN, derr)
		}
		key := e.layout.key(&rec)
		if isSwap || owns != nil && !owns(key) {
			st.Skipped++
			continue
		}
		events = append(events, queued{rec: rec, lsn: sr.LSN})
		touched[key] = true
	}

	// Read the accepted images. A quiet bank the suffix does not touch — nearly
	// every bank of a fleet — needs no session: it is checked here and placed
	// in its shard's store at install time. Every other image is rebuilt as a
	// session detached from any shard, keyed by bank. Conflict checks against
	// live shards happen again at install time under the shard lock; this early
	// pass just avoids rebuilding state that is sure to be rejected.
	type detached struct {
		bs       *bankSession
		strategy core.Strategy // serves bs.version
	}
	type quietImage struct {
		im *sessionImage
		ds core.DurableStrategy
	}
	adopted := make(map[uint64]detached)
	var quietImages []quietImage
	load := imageLoader{e: e}
	for i := range images {
		im := &images[i]
		if owns != nil && !owns(im.key) {
			continue
		}
		if _, exists := e.sessionByKey(im.key); exists {
			st.Conflicts++
			continue
		}
		// Sessions keep their pinned version across the move; this engine's
		// model source must be able to resolve it.
		ds, err := load.strategy(im.version)
		if err != nil {
			return st, err
		}
		if !touched[im.key] {
			_, quiet, err := load.quietLog(ds, im)
			if err != nil {
				return st, err
			}
			if quiet {
				quietImages = append(quietImages, quietImage{im, ds})
				continue
			}
		}
		bs, err := buildSession(ds, im)
		if err != nil {
			return st, err
		}
		adopted[im.key] = detached{bs, ds}
	}

	// Replay the suffix over the detached sessions. Events below a
	// session's source watermark are already inside its snapshot image;
	// events for banks the snapshot never saw get fresh sessions (the bank
	// first erred after the source's last checkpoint).
	var pending []Action
	var vb verdictBuffers // the replay's: pending's rows are carved from its slabs
	for i := range events {
		q := &events[i]
		key := e.layout.key(&q.rec)
		d, ok := adopted[key]
		if !ok {
			if _, exists := e.sessionByKey(key); exists {
				st.Skipped++ // conflicting local session owns this bank's history
				continue
			}
			ep := e.activeEpoch()
			d = detached{newBankSession(hbm.Unpack(key), ep, q.rec.UnixNano), ep.strategy}
			adopted[key] = d
		}
		bs := d.bs
		if q.lsn <= bs.lastLSN {
			st.Skipped++ // covered by the snapshot image
			continue
		}
		bs.lastLSN = q.lsn
		if bs.degraded {
			bs.events++
			bs.lastEvent = q.rec.UnixNano
			continue
		}
		acts, panicked := e.foldDetached(bs, q, &vb)
		if panicked {
			st.Quarantined++
			continue
		}
		st.Replayed++
		pending = append(pending, acts...)
	}

	// Install under the shard locks, re-checking for conflicts: a session
	// that appeared locally since the early pass wins and the adopted one
	// is dropped. Watermarks are zeroed — from here on the session's
	// history lives in THIS engine's journal namespace.
	counts := make([]int, len(e.shards))
	for _, qi := range quietImages {
		counts[e.shardIndex(qi.im.key)]++
	}
	for key := range adopted {
		counts[e.shardIndex(key)]++
	}
	e.reserve(counts)
	install := func(key uint64, put func(s *shard)) {
		s := e.shardFor(key)
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.store.find(key) != nil {
			st.Conflicts++
			return
		}
		put(s)
		st.Sessions++
	}
	for _, qi := range quietImages {
		install(qi.im.key, func(s *shard) {
			log, _, _ := load.quietLog(qi.ds, qi.im) // decoded once above: cannot fail
			qi.im.lastLSN = 0
			s.addQuiet(qi.im.key, s.totals.versionIndex(qi.im.version, qi.ds), &qi.im.bankSession, log)
		})
	}
	for key, d := range adopted {
		d.bs.lastLSN = 0
		install(key, func(s *shard) { s.install(key, d.bs, d.strategy) })
	}

	// Re-derived actions are emitted after install so a consumer that
	// inspects the session behind an action always finds it.
	for _, a := range pending {
		e.emit(a)
	}
	st.Actions = len(pending)

	// Persist before the caller acknowledges the handoff: without this, a
	// crash after ack would lose state the source already gave away.
	if e.wal != nil && st.Sessions > 0 {
		if _, err := e.Snapshot(); err != nil {
			return st, fmt.Errorf("stream: persisting imported sessions: %w", err)
		}
	}
	return st, nil
}

// DropSessions removes the sessions selected by filter (nil = all) and,
// when the engine is durable, snapshots so the removal sticks across a
// restart. It is the final step of a handoff: once the importer has
// acknowledged the moved banks, the source drops its now-inert copies so
// a later move back does not collide with stale local state. Events for
// the dropped banks must already be fenced off by the ownership filter —
// DropSessions does not stop intake.
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
	if e.wal != nil && dropped > 0 {
		if _, err := e.Snapshot(); err != nil {
			return dropped, fmt.Errorf("stream: persisting session drop: %w", err)
		}
	}
	return dropped, nil
}

// foldDetached folds one event into a detached (not yet installed)
// session, converting a strategy panic into the degraded state plus a
// dead-letter entry — the same quarantine contract the live path has.
func (e *Engine) foldDetached(bs *bankSession, q *queued, vb *verdictBuffers) (out []Action, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			out = nil
			bs.degraded = true
			e.quarantineDetached(newDeadLetter(&queued{rec: q.rec}, r))
		}
	}()
	return foldEvent(bs, q.rec.Event(), nil, nil, vb), false
}

// quarantineDetached preserves a handoff-replay dead letter. Shard
// counters don't apply (the session isn't installed yet); the event still
// goes to the log and the dead-letter file.
func (e *Engine) quarantineDetached(d *DeadLetter) {
	e.cfg.Logger.Warn("event quarantined during handoff import",
		"bank", d.Bank, "row", d.Row, "class", d.Class, "reason", d.Reason)
	e.writeDeadLetter(d)
}
