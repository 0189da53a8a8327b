package stream

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/wal"
)

// walJournal keeps the Engine field readable next to the wal package name.
type walJournal = wal.WAL

// DurabilityConfig configures the engine's WAL + snapshot layer.
//
// The durability contract: once Ingest returns nil the event is journaled
// (on stable storage under SyncAlways), and after a crash the engine
// rebuilds the exact same per-bank state by restoring the newest valid
// snapshot and replaying the journal suffix. Per-session LSN watermarks
// make the replay idempotent, so the reconstruction is bit-identical to an
// uninterrupted run — pinned by TestCrashRecoveryEquivalence.
type DurabilityConfig struct {
	// Dir is the journal + snapshot directory. Empty disables durability.
	Dir string
	// FS overrides the filesystem (fault-injection tests); nil means the
	// real one.
	FS wal.FS
	// Sync is the journal fsync policy (default SyncAlways). Under
	// SyncAlways concurrent appends coalesce into shared fsyncs (group
	// commit; each ack still waits for the fsync covering its record);
	// under SyncNever the OS decides when the journal reaches the disk.
	Sync wal.SyncPolicy
	// SegmentBytes is the journal segment rotation size (0 = 8 MiB).
	SegmentBytes int64
	// SnapshotKeep is how many snapshot files to retain (0 = 3).
	SnapshotKeep int
}

func (d DurabilityConfig) keep() int {
	if d.SnapshotKeep < 1 {
		return 3
	}
	return d.SnapshotKeep
}

// DeadLetter is one quarantined event as written to the dead-letter file
// (one JSON object per line).
type DeadLetter struct {
	// Time is the event's timestamp.
	Time time.Time `json:"time"`
	// Bank and Addr identify where the event landed (Addr is the packed
	// physical address, reversible with hbm.Unpack).
	Bank string `json:"bank"`
	Addr uint64 `json:"addr"`
	Row  int    `json:"row"`
	// Class is the event's ECC class.
	Class string `json:"class"`
	// LSN is the event's journal position (0 without durability).
	LSN uint64 `json:"lsn,omitempty"`
	// Reason is the recovered panic value.
	Reason string `json:"reason"`
}

// quarantine counts a poisoned event on its bank's shard and preserves it in
// the dead-letter file. Runs outside the shard lock; file errors are swallowed
// (losing a dead-letter line must not take down processing).
func (e *Engine) quarantine(d *DeadLetter) {
	e.shardFor(d.Addr & e.layout.bankMask).quarantined.Inc()
	e.cfg.Logger.Warn("event quarantined",
		"bank", d.Bank, "row", d.Row, "class", d.Class, "reason", d.Reason)
	e.writeDeadLetter(d)
}

// writeDeadLetter appends one entry to the rotating dead-letter log, if
// one is configured.
func (e *Engine) writeDeadLetter(d *DeadLetter) {
	if e.dead == nil {
		return
	}
	line, err := json.Marshal(d)
	if err != nil {
		return
	}
	e.dead.write(line)
}

// ---- snapshot payload ------------------------------------------------------

// Engine snapshot payload layout (wrapped in wal's checksummed snapshot
// framing): magic, version, retention floor, the active model epoch
// (version + the journal position it took effect), session count, then
// per session the bank key, packed address, LSN watermark, pinned model
// version, engine bookkeeping (stats, distinct-UER and spared-row sets — the
// two lists of the row table's marks, and their counts beside them) and the
// strategy session's own state image.
//
// Version 2 added the model epoch header fields and the per-session
// pinned version; version-1 payloads still decode (sessions come back
// with version 0 = "whatever was active at boot").
const (
	engineSnapMagic   = "CENG"
	engineSnapVersion = 2
	maxSnapSessions   = 1 << 24
)

// snapWhat names the payload in decode errors.
const snapWhat = "stream: snapshot payload"

// encodeSnapshot walks every shard (locking each in turn) and serialises
// the sessions selected by filter (nil = all) plus the retention floor:
// the minimum across shards of the highest LSN folded into sessions.
// Per-session watermarks make a non-instantaneous multi-shard snapshot
// safe — any record applied after its shard was encoded simply replays on
// recovery. A filtered payload is a handoff export, not a checkpoint: it
// uses the same framing, but its floor only describes the exporting
// engine and is informational to the importer.
func (e *Engine) encodeSnapshot(filter func(bankKey uint64) bool) (payload []byte, floor uint64, err error) {
	var w snapshotWriter
	floor = ^uint64(0)
	for _, s := range e.shards {
		s.mu.Lock()
		floor = min(floor, s.appliedLSN)
		err = w.add(s.shardState, filter)
		s.mu.Unlock()
		if err != nil {
			return nil, 0, err
		}
	}
	// The active epoch rides in the header so recovery can rebind new
	// sessions correctly even after the swap record itself is truncated.
	// Snapshot takes snapMu and SwapModel excludes it, so the header can
	// never name an epoch the floor disagrees with.
	payload, err = w.payload(floor, e.activeEpoch())
	return payload, floor, err
}

// snapshotWriter collects the session records of a snapshot payload, one
// shard state at a time, and frames them. Every record is appended to one
// arena, length prefix and all, and indexed by its bank key and span.
type snapshotWriter struct {
	arena bincodec.Cursor
	index []snapRecord
	image []byte // reused: a stored bank's quiet image
}

// snapRecord locates one framed record in the arena: arena[off:end].
type snapRecord struct {
	key      uint64
	off, end int
}

// add appends the record of every bank of st that filter selects (nil = all).
// A stored bank's strategy image is the quiet image of its chain, encoded
// without a session. The caller holds st's lock.
func (w *snapshotWriter) add(st *shardState, filter func(bankKey uint64) bool) (err error) {
	st.store.each(func(sl *slot) {
		if err != nil || filter != nil && !filter(sl.key) {
			return
		}
		im := sessionImage{key: sl.key, bankSession: st.view(sl)}
		if sl.form() == slotStored {
			st.chain = st.store.log(sl, st.chain)
			w.image, err = core.AppendQuietImage(w.image[:0], st.chain)
			im.blob = w.image
		} else if ds, ok := im.sess.(core.DurableSession); ok {
			im.blob, err = ds.EncodeState()
		} else {
			err = fmt.Errorf("stream: session %T is not durable", im.sess)
		}
		if err != nil {
			return
		}
		c := &w.arena
		c.What = snapWhat
		off := len(c.B)
		start := c.BeginBytes()
		im.code(c, engineSnapVersion)
		c.EndBytes(start)
		err = c.Err
		w.index = append(w.index, snapRecord{key: sl.key, off: off, end: len(c.B)})
	})
	return err
}

// payload frames the records, in bank-key order, behind a header naming the
// retention floor and the active epoch.
func (w *snapshotWriter) payload(floor uint64, active modelEpoch) ([]byte, error) {
	slices.SortFunc(w.index, func(a, b snapRecord) int { return cmp.Compare(a.key, b.key) })
	out := &bincodec.Cursor{B: append(make([]byte, 0, 64+len(w.arena.B)), engineSnapMagic...), What: snapWhat}
	out.B = append(out.B, engineSnapVersion)
	hdr := snapshotHeader{floor: floor, activeVersion: active.version, activeSince: active.sinceLSN}
	n := len(w.index)
	hdr.code(out, engineSnapVersion, &n)
	for _, r := range w.index {
		out.B = append(out.B, w.arena.B[r.off:r.end]...)
	}
	return out.B, out.Err
}

// sessionImage is one decoded per-session record of an engine snapshot
// payload: the bankSession's bookkeeping (its lastLSN in the SOURCE engine's
// journal namespace) and the strategy session's state image, from which
// shardState.restore rebuilds sess.
type sessionImage struct {
	key uint64
	bankSession
	blob []byte
}

// code walks one session record in layout order, writing it or reading it.
// The row table is written as its two lists, each with its count in the
// stats before it; reading merges the lists back into the table and refuses
// a count that disagrees with its list.
func (im *sessionImage) code(c *bincodec.Cursor, ver uint8) {
	uerRows, spared := im.rowLists()
	c.U64(&im.key)
	packed := im.key // the layout repeats the key as the bank's packed address
	c.U64(&packed)
	if packed != im.key {
		c.Fail("session key %#x beside bank address %#x", im.key, packed)
	}
	c.U64(&im.lastLSN)
	if ver >= 2 {
		c.U64(&im.version)
	}
	bincodec.Ranged(c, &im.events, math.MaxInt64)
	bincodec.Ranged(c, &im.uerEvents, math.MaxUint32)
	distinctUERRows, rowsIsolated := len(uerRows), len(spared)
	bincodec.Ranged(c, &distinctUERRows, math.MaxInt32)
	c.Flag(&im.classified)
	c.U8(&im.class)
	c.Flag(&im.bankSpared)
	bincodec.Ranged(c, &rowsIsolated, math.MaxUint32)
	bincodec.Ranged(c, &im.actions, math.MaxUint32)
	c.Time(&im.firstEvent)
	c.Time(&im.lastEvent)
	c.Flag(&im.degraded)
	bincodec.Rows(c, &uerRows, true)
	bincodec.Rows(c, &spared, true)
	c.Bytes(&im.blob)
	if !c.Decode {
		return
	}
	if distinctUERRows != len(uerRows) {
		c.Fail("session counts %d distinct UER rows but lists %d", distinctUERRows, len(uerRows))
	}
	if rowsIsolated != len(spared) {
		c.Fail("session counts %d isolated rows but lists %d spared", rowsIsolated, len(spared))
	}
	for _, row := range uerRows {
		im.mark(int(row)).uer = true
	}
	for _, row := range spared {
		im.mark(int(row)).spared = true
	}
}

// rowLists returns the row table's UER rows and spared rows, each ascending.
func (bs *bankSession) rowLists() (uerRows, spared []int32) {
	for _, m := range bs.rows {
		if m.uer {
			uerRows = append(uerRows, m.row)
		}
		if m.spared {
			spared = append(spared, m.row)
		}
	}
	return uerRows, spared
}

// snapshotHeader is the decoded fixed prefix of an engine snapshot
// payload: the retention floor plus the model epoch that was active when
// it was taken (both zero for version-1 payloads' epoch fields).
type snapshotHeader struct {
	floor         uint64
	activeVersion uint64
	activeSince   uint64
}

// code walks the header fields and the session count that follows them.
func (h *snapshotHeader) code(c *bincodec.Cursor, ver uint8, sessions *int) {
	c.U64(&h.floor)
	if ver >= 2 {
		c.U64(&h.activeVersion)
		c.U64(&h.activeSince)
	}
	c.Count(sessions, maxSnapSessions, 8)
}

// decodeSnapshotSessions validates an engine snapshot payload and decodes
// its session images. The header's floor is the source engine's retention
// floor — informational for a restore, and the WAL-suffix start for a
// handoff.
func decodeSnapshotSessions(payload []byte) (hdr snapshotHeader, images []sessionImage, err error) {
	if len(payload) < len(engineSnapMagic)+1 {
		return hdr, nil, fmt.Errorf("stream: snapshot payload too short")
	}
	if string(payload[:4]) != engineSnapMagic {
		return hdr, nil, fmt.Errorf("stream: bad snapshot payload magic")
	}
	ver := payload[4]
	if ver != 1 && ver != engineSnapVersion {
		return hdr, nil, fmt.Errorf("stream: unsupported snapshot payload version %d", ver)
	}
	d := &bincodec.Cursor{B: payload, Off: 5, Decode: true, What: snapWhat}
	var n int
	hdr.code(d, ver, &n)
	// One allocation for all the images: a record is its 8-byte length and at
	// least 132 bytes of fixed-size fields, which bounds what a count can claim.
	images = make([]sessionImage, 0, min(n, (len(payload)-d.Off)/140))
	sd := &bincodec.Cursor{Decode: true, What: snapWhat}
	for i := 0; i < n && d.Err == nil; i++ {
		var body []byte
		d.Bytes(&body)
		sd.B, sd.Off = body, 0
		var im sessionImage
		im.code(sd, ver)
		if err := sd.Done(); err != nil {
			return hdr, nil, err
		}
		images = append(images, im)
	}
	return hdr, images, d.Err
}

// imageLoader reads decoded session images for a restore or an import,
// resolving each pinned model version once — not once per bank — through
// resolve (the engine's resolveDurable).
type imageLoader struct {
	resolve  func(version uint64) (core.DurableStrategy, error)
	resolved map[uint64]core.DurableStrategy
}

// strategy resolves the version an image pins. A version the model source
// cannot resolve is a hard error — serving a bank under the wrong model would
// silently diverge from the source's verdict stream, which is worse than
// refusing the payload. (Version 0 — an image from before versioning — binds
// the boot model, and a static source resolves any version to its one strategy.)
func (l *imageLoader) strategy(version uint64) (core.DurableStrategy, error) {
	if ds, ok := l.resolved[version]; ok {
		return ds, nil
	}
	ds, err := l.resolve(version)
	if err != nil {
		return nil, err
	}
	if l.resolved == nil {
		l.resolved = make(map[uint64]core.DurableStrategy)
	}
	l.resolved[version] = ds
	return ds, nil
}

// restore puts the bank of a decoded image into st, pinned to the version the
// image names. Under a core.QuietStrategy a quiet image is decoded here, into
// st's chain scratch, and placed by addQuiet — in the stored form, with no
// session and no allocation of its own, when the store can take it; any other
// image comes back as the session the version's strategy restores from it.
func (st *shardState) restore(load *imageLoader, im *sessionImage) error {
	ds, err := load.strategy(im.version)
	if err != nil {
		return err
	}
	ver := st.totals.versionIndex(im.version, ds)
	quiet := false
	if st.totals.version(ver).quiet != nil {
		st.chain, quiet, err = core.QuietImageLog(im.blob, st.chain)
	}
	var sess core.Session
	if err == nil && !quiet {
		sess, err = ds.RestoreSession(hbm.Unpack(im.key), im.blob)
	}
	switch {
	case err != nil:
		return fmt.Errorf("stream: restoring session for bank %s: %w", hbm.Unpack(im.key), err)
	case quiet:
		st.addQuiet(im.key, ver, &im.bankSession, st.chain)
	default:
		bs := im.bankSession
		bs.sess = sess
		bs.measureState()
		st.addHeap(im.key, ver, &bs)
	}
	return nil
}

// restoreSnapshot rebuilds every bank from an engine snapshot payload,
// re-seeding the model epoch table from the header and rebinding each bank to
// its pinned version; an unresolvable version fails the boot loudly. The banks
// go into fresh shard states, which replace the shards' only once every image
// has restored: a payload that fails part-way leaves the shards as they were.
// The header's floor is kept for replay. Called during New, before the
// consumers start.
func (e *Engine) restoreSnapshot(payload []byte) error {
	hdr, images, err := decodeSnapshotSessions(payload)
	if err != nil {
		return err
	}
	if hdr.activeVersion != 0 {
		strat, serr := e.strategyFor(hdr.activeVersion)
		if serr != nil {
			return fmt.Errorf("stream: resolving snapshot's active model version %d: %w", hdr.activeVersion, serr)
		}
		e.seedEpochs(modelEpoch{version: hdr.activeVersion, sinceLSN: hdr.activeSince, strategy: strat})
	}
	counts := make([]int, len(e.shards))
	for i := range images {
		counts[e.shardIndex(images[i].key)]++
	}
	fresh := make([]*shardState, len(e.shards))
	for i := range fresh {
		fresh[i] = newShardState(e.layout)
		fresh[i].store.reserve(counts[i])
	}
	load := imageLoader{resolve: e.resolveDurable}
	for i := range images {
		if err := fresh[e.shardIndex(images[i].key)].restore(&load, &images[i]); err != nil {
			return err
		}
	}
	for i, s := range e.shards {
		s.mu.Lock()
		s.shardState = fresh[i]
		s.mu.Unlock()
	}
	e.recoveredSessions, e.recoveredFloor = len(images), hdr.floor
	return nil
}

// ---- recovery and snapshotting --------------------------------------------

// recoverDurable restores the newest decodable snapshot (walking past
// corrupt ones — a bad snapshot costs replay time, never the recovery),
// opens the journal (repairing any torn tail), and replays the suffix. Replay
// is one of the shard step's three callers: it queues the decoded records per
// shard and steps them a consumer batch at a time. Per-bank watermarks skip
// records the snapshot already covers, and its floor those of banks dropped
// before it was taken; actions re-derived by the replayed suffix are emitted
// again (at-least-once), deduplicated per bank by the restored spared-row
// state.
func (e *Engine) recoverDurable() error {
	dcfg := e.cfg.Durability
	// The boot epoch table, restored before each fallback attempt so a
	// half-restored snapshot cannot leave its header's epoch behind.
	bootEpochs := e.epochList()

	snaps, err := wal.ListSnapshots(dcfg.FS, dcfg.Dir)
	if err != nil {
		return err
	}
	for _, si := range snaps {
		seq, payload, rerr := wal.ReadSnapshot(dcfg.FS, si.Path)
		if rerr != nil {
			continue // corrupt file: fall back to the previous snapshot
		}
		if rerr = e.restoreSnapshot(payload); rerr != nil {
			e.epochs.Store(bootEpochs) // undecodable payload (e.g. version skew): also fall back
			continue
		}
		e.snapSeq.Store(seq)
		break
	}

	w, err := wal.Open(dcfg.Dir, wal.Options{
		FS:           dcfg.FS,
		SegmentBytes: dcfg.SegmentBytes,
		Sync:         dcfg.Sync,
		GroupCommit:  true,
		Metrics:      e.metrics.reg,
	})
	if err != nil {
		return err
	}
	e.wal = w

	pending := make([][]queued, len(e.shards))
	flush := func(si int) {
		if len(pending[si]) > 0 {
			e.deliver(e.shards[si].lockedStep(stepEnv{epochs: e.epochList(), shadow: e.loadShadow(), floor: e.recoveredFloor}, pending[si]))
			pending[si] = pending[si][:0]
		}
	}
	var replayed uint64
	err = w.Replay(func(lsn uint64, payload []byte) error {
		rec, version, isSwap, derr := decodeJournalRecord(payload)
		if derr != nil {
			return derr
		}
		if isSwap {
			// Re-install the epoch at its original position so sessions
			// created later in the replay bind the same version they bound
			// live — after stepping the records before it, under the table
			// they were replayed under. Idempotent against the snapshot
			// header's seed. An unresolvable version fails the boot loudly,
			// same as restore.
			for si := range pending {
				flush(si)
			}
			strat, serr := e.strategyFor(version)
			if serr != nil {
				return fmt.Errorf("stream: resolving replayed model swap to version %d: %w", version, serr)
			}
			e.installEpoch(modelEpoch{version: version, sinceLSN: lsn, strategy: strat})
			return nil
		}
		replayed++
		si := e.shardIndex(e.layout.key(&rec))
		if pending[si] = append(pending[si], queued{rec: rec, lsn: lsn}); len(pending[si]) == consumerBatch {
			flush(si)
		}
		return nil
	})
	if err != nil {
		w.Close()
		e.wal = nil
		return fmt.Errorf("stream: replaying journal: %w", err)
	}
	for si := range pending {
		flush(si)
	}
	// Every record of the journal is folded or refused: each shard is
	// complete to its end, so what the snapshot was authoritative to stays so
	// in the next one.
	if end := w.NextLSN(); end > 0 {
		for _, s := range e.shards {
			s.appliedLSN = max(s.appliedLSN, end-1)
		}
	}
	e.recoveredEvents = replayed
	e.metrics.recoveredSessions.Set(float64(e.recoveredSessions))
	e.metrics.recoveredEvents.Set(float64(replayed))
	return nil
}

// ErrNotDurable is returned by Snapshot when no WAL directory was
// configured.
var ErrNotDurable = errors.New("stream: durability not configured")

// Snapshot writes a checkpoint of every session to the durability
// directory, then retires journal segments wholly covered by it and prunes
// old snapshot files. Concurrent ingest and processing continue throughout;
// Drain first for a checkpoint that covers everything accepted so far.
// Returns the snapshot's sequence number.
func (e *Engine) Snapshot() (uint64, error) {
	if e.wal == nil {
		return 0, ErrNotDurable
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	t0 := time.Now()
	payload, floor, err := e.encodeSnapshot(nil)
	if err != nil {
		e.metrics.snapshotErrors.Inc()
		return 0, err
	}
	seq := max(e.wal.NextLSN(), e.snapSeq.Load()+1)
	if _, err := wal.WriteSnapshot(e.cfg.Durability.FS, e.cfg.Durability.Dir, seq, payload); err != nil {
		e.metrics.snapshotErrors.Inc()
		return 0, err
	}
	e.snapSeq.Store(seq)
	e.metrics.snapshots.Inc()
	e.metrics.snapshotBytes.Set(float64(len(payload)))
	// Retention is best-effort — a failure leaves extra files, not broken
	// recovery — but it must never be silent: a retention step that keeps
	// failing grows the directory until the disk fills, so each failure is
	// logged and counted (cordial_retention_errors_total, and
	// EngineStats.RetentionErrors on /statsz).
	if terr := e.wal.TruncateBefore(floor + 1); terr != nil {
		e.metrics.retentionErrors.Inc()
		e.cfg.Logger.Warn("snapshot retention failed",
			"stage", "truncate", "floor", floor, "err", terr)
	}
	if perr := wal.PruneSnapshots(e.cfg.Durability.FS, e.cfg.Durability.Dir, e.cfg.Durability.keep()); perr != nil {
		e.metrics.retentionErrors.Inc()
		e.cfg.Logger.Warn("snapshot retention failed",
			"stage", "prune", "keep", e.cfg.Durability.keep(), "err", perr)
	}
	e.metrics.snapshotDur.Observe(time.Since(t0).Seconds())
	return seq, nil
}
