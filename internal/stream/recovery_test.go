package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/rowset"
	"cordial/internal/wal"
)

// ---- durable fake strategy -------------------------------------------------

// fakeSession's image lets the fast recovery tests run without training a
// pipeline: version, classified flag, class, sorted distinct rows.
func (s *fakeSession) code(c *bincodec.Cursor) {
	version := uint8(1)
	if c.U8(&version); version != 1 {
		c.Fail("fake session image version %d", version)
	}
	c.Flag(&s.classified)
	class := uint8(s.class)
	c.U8(&class)
	s.class = faultsim.Class(class)
	var set rowset.Runs
	for r := range s.rows {
		set.Add(r)
	}
	var rows []int32
	set.Each(func(r int) { rows = append(rows, int32(r)) })
	bincodec.Rows(c, &rows, true)
	for _, r := range rows {
		s.rows[int(r)] = true
	}
}

func (s *fakeSession) EncodeState() ([]byte, error) {
	c := &bincodec.Cursor{What: "fake session image"}
	s.code(c)
	return c.B, c.Err
}

func (f *fakeStrategy) RestoreSession(bank hbm.BankAddress, data []byte) (core.Session, error) {
	s := &fakeSession{strategy: f, bank: bank, rows: make(map[int]bool)}
	c := &bincodec.Cursor{B: data, Decode: true, What: "fake session image"}
	s.code(c)
	return s, c.Done()
}

// ---- harness ---------------------------------------------------------------

// snapBodyOffset skips the engine snapshot payload's magic, version and
// retention floor; the floor depends on the shard count, the rest of the
// payload must be byte-identical across crash/recovery boundaries.
const snapBodyOffset = len(engineSnapMagic) + 1 + 8

// durCfg points an engine at a WAL directory. SyncNever keeps the tight
// crash-recovery loops fast; fsync behaviour has its own fault tests.
func durCfg(dir string, shards int, strategy core.Strategy) Config {
	if strategy == nil {
		strategy = &fakeStrategy{budget: 3}
	}
	return Config{
		Strategy:   strategy,
		Shards:     shards,
		Durability: DurabilityConfig{Dir: dir, Sync: wal.SyncNever},
	}
}

// flipByte corrupts the byte at the given offset from a file's end (offset
// 1 hits a snapshot's checksum).
func flipByte(t *testing.T, path string, fromEnd int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < fromEnd {
		t.Fatalf("%s has %d bytes, cannot flip %d from end", path, len(data), fromEnd)
	}
	data[len(data)-fromEnd] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- fault injection -------------------------------------------------------

// TestRecoverySnapshotFallback: a corrupt snapshot (bad checksum or
// undecodable payload) must never break recovery — the engine falls back to
// the previous snapshot, or to a full journal replay, and converges to the
// same state either way.
func TestRecoverySnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	strategy := &fakeStrategy{budget: 3}
	e := newTestEngine(t, durCfg(dir, 2, strategy))
	bank := testBank(1)
	ingest := func(rows ...int) {
		t.Helper()
		for i, row := range rows {
			if err := e.Ingest(uerAt(bank, row, i)); err != nil {
				t.Fatal(err)
			}
		}
		feed(t, e)
	}
	ingest(1, 2, 3)
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(4, 5, 6)
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	refPayload, _, err := e.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBody := refPayload[snapBodyOffset:]
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)

	snaps, err := wal.ListSnapshots(wal.OSFS, dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("snapshots = %v, %v; want 2", snaps, err)
	}

	// reopen recovers the directory and checks the converged state plus the
	// snapshot sequence actually used.
	reopen := func(t *testing.T, wantSeq uint64) {
		t.Helper()
		e2, err := New(durCfg(dir, 2, strategy))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer func() {
			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			drainActions(e2)
		}()
		if got := e2.Stats().LastSnapshotSeq; got != wantSeq {
			t.Errorf("LastSnapshotSeq = %d, want %d", got, wantSeq)
		}
		payload, _, err := e2.encodeSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload[snapBodyOffset:], wantBody) {
			t.Error("recovered state diverged")
		}
	}

	// Newest snapshot checksum-corrupt: fall back to the older one.
	flipByte(t, snaps[0].Path, 1)
	t.Run("corrupt-newest", func(t *testing.T) { reopen(t, snaps[1].Seq) })

	// A snapshot with a valid checksum frame but a garbage engine payload,
	// newer than everything: skipped the same way.
	if _, err := wal.WriteSnapshot(wal.OSFS, dir, snaps[0].Seq+10, []byte("not an engine snapshot")); err != nil {
		t.Fatal(err)
	}
	t.Run("garbage-payload", func(t *testing.T) { reopen(t, snaps[1].Seq) })

	// A payload that decodes, newer than everything, whose middle image will
	// not restore: a bank that exists nowhere else restores before it, and the
	// recovery must still be the older snapshot's plus the journal — nothing of
	// the half-restored payload left behind, every total a recount.
	_, older, err := wal.ReadSnapshot(wal.OSFS, snaps[1].Path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, images, err := decodeSnapshotSessions(older)
	if err != nil || len(images) != 1 {
		t.Fatalf("%d images, %v", len(images), err)
	}
	phantom, bad := images[0], images[0]
	phantom.key, bad.key, bad.blob = testBank(5).BankKey(), testBank(6).BankKey(), []byte{9}
	partial, err := encodeSnapshotImages(engineSnapVersion, hdr, []sessionImage{phantom, bad, images[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(wal.OSFS, dir, snaps[0].Seq+20, partial); err != nil {
		t.Fatal(err)
	}
	t.Run("restore-fails-mid-payload", func(t *testing.T) {
		reopen(t, snaps[1].Seq)
		e2 := newTestEngine(t, durCfg(dir, 2, strategy))
		defer func() {
			e2.Close()
			drainActions(e2)
		}()
		if _, ok := e2.Session(testBank(5)); ok {
			t.Error("a bank of the payload that failed part-way was restored")
		}
		assertTotalsMatchRecount(t, "after a restore that failed part-way", e2)
	})

	// Every snapshot corrupt: full replay from an empty state, no panic.
	snaps, err = wal.ListSnapshots(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A different byte than before: re-flipping the same one would undo the
	// earlier corruption.
	for _, si := range snaps {
		flipByte(t, si.Path, 2)
	}
	t.Run("all-corrupt", func(t *testing.T) { reopen(t, 0) })
}

// TestRecoveryFloorsJournalAtSnapshot: under SyncNever a power cut can take
// records a snapshot covers off the journal's tail. Their LSNs must not go to
// new events, which the restored watermark would refuse on every boot.
func TestRecoveryFloorsJournalAtSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durCfg(dir, 1, &fakeStrategy{budget: 100})
	bank := testBank(1)
	for boot, evs := range [][]int{{1, 2, 3, 4, 5, 6}, {7}, nil} {
		e := newTestEngine(t, cfg)
		for _, row := range evs {
			if err := e.Ingest(uerAt(bank, row, row)); err != nil {
				t.Fatal(err)
			}
		}
		e.Drain(10 * time.Second)
		s, _ := e.Session(bank)
		if boot == 0 {
			if seq, err := e.Snapshot(); err != nil || seq != 7 {
				t.Fatalf("Snapshot = %d, %v; want seq 7", seq, err)
			}
		}
		e.Close()
		drainActions(e)
		if boot == 0 { // the power cut: the last three 35-byte frames were never synced
			if err := os.Truncate(filepath.Join(dir, "wal-0000000000000001.seg"), 8+3*35); err != nil {
				t.Fatal(err)
			}
		} else if s.Events != 7 {
			t.Fatalf("boot %d: session %+v, want 7 events", boot, s)
		}
	}
}

// TestRecoveryTornTail: garbage after the last intact journal record (the
// shape a power cut mid-append leaves) is truncated on reopen, and the
// repaired journal accepts new appends.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	strategy := &fakeStrategy{budget: 3}
	e := newTestEngine(t, durCfg(dir, 2, strategy))
	bank := testBank(1)
	for i, row := range []int{1, 2, 3, 4, 5} {
		if err := e.Ingest(uerAt(bank, row, i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e)
	refPayload, _, err := e.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := New(durCfg(dir, 2, strategy))
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	if got := e2.Stats().RecoveredEvents; got != 5 {
		t.Errorf("RecoveredEvents = %d, want 5", got)
	}
	payload, _, err := e2.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload[snapBodyOffset:], refPayload[snapBodyOffset:]) {
		t.Error("state diverged after torn-tail repair")
	}
	// The repaired journal keeps accepting events.
	if err := e2.Ingest(uerAt(bank, 6, 6)); err != nil {
		t.Fatal(err)
	}
	feed(t, e2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e2)
}

// TestRecoveryFsyncFailureSurfaces: under SyncAlways a failed fsync must
// reject the event at Ingest (never acknowledge data that is not on stable
// storage), and the engine keeps serving once the disk recovers.
func TestRecoveryFsyncFailureSurfaces(t *testing.T) {
	ffs := wal.NewFaultFS(wal.OSFS)
	e, err := New(Config{
		Strategy: &fakeStrategy{budget: 3},
		Shards:   1,
		Durability: DurabilityConfig{
			Dir:  t.TempDir(),
			FS:   ffs,
			Sync: wal.SyncAlways,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bank := testBank(1)
	if err := e.Ingest(uerAt(bank, 1, 0)); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAfter(0)
	if err := e.Ingest(uerAt(bank, 2, 1)); !errors.Is(err, wal.ErrInjectedSync) {
		t.Fatalf("Ingest under failing fsync = %v, want ErrInjectedSync", err)
	}
	if got := e.Stats().Ingested; got != 1 {
		t.Errorf("Ingested = %d after rejected event, want 1", got)
	}
	ffs.FailSyncAfter(-1)
	if err := e.Ingest(uerAt(bank, 3, 2)); err != nil {
		t.Fatalf("Ingest after fsync recovery: %v", err)
	}
	feed(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
}

// TestRecoveryFailedRotationKeepsAcknowledged: a batch that crosses a journal
// segment boundary is rejected when the new segment's directory sync fails,
// after its first record was already flushed into the sealed segment. The
// bank's later, acknowledged events must not reuse that record's LSN: recovery
// replays it first, raising the bank's watermark, and would refuse every
// acknowledged event journaled under the same LSN.
func TestRecoveryFailedRotationKeepsAcknowledged(t *testing.T) {
	ffs := wal.NewFaultFS(wal.OSFS)
	cfg := Config{
		Strategy: &fakeStrategy{budget: 100},
		Shards:   1,
		// An 8-byte header and three 35-byte frames: the batch's first
		// record fills the segment and its second rotates.
		Durability: DurabilityConfig{Dir: t.TempDir(), FS: ffs, Sync: wal.SyncAlways, SegmentBytes: 100},
	}
	e := newTestEngine(t, cfg)
	bank := testBank(1)
	for i := 0; i < 2; i++ {
		if err := e.Ingest(uerAt(bank, i+1, i)); err != nil {
			t.Fatal(err)
		}
	}
	ffs.FailSyncAfter(2) // the sealed segment's and the new header's syncs pass, the directory's fails
	if _, _, err := e.IngestBatch([]mcelog.Event{uerAt(bank, 3, 2), uerAt(bank, 4, 3)}); !errors.Is(err, wal.ErrInjectedSync) {
		t.Fatalf("batch across a failed rotation = %v, want ErrInjectedSync", err)
	}
	ffs.FailSyncAfter(-1)
	for i := 0; i < 4; i++ {
		if err := e.Ingest(uerAt(bank, 10+i, 4+i)); err != nil {
			t.Fatal(err)
		}
	}
	feed(t, e)
	if err := e.Close(); err != nil { // a plain Close writes no snapshot: recovery replays the journal
		t.Fatal(err)
	}
	drainActions(e)

	cfg.Durability.FS = nil
	e2 := newTestEngine(t, cfg)
	defer func() {
		e2.Close()
		drainActions(e2)
	}()
	// Six acknowledged events, and the rejected batch's first record, which
	// reached the sealed segment before the rotation failed.
	if s, ok := e2.Session(bank); !ok || s.Events != 7 {
		t.Fatalf("recovered session %+v (found %v), want 7 events", s, ok)
	}
}

// ---- supervision -----------------------------------------------------------

// TestPoisonQuarantineAndDeadLetter: an event that panics inside the
// strategy session is quarantined — counted, preserved in the dead-letter
// file, its session degraded — while every other bank keeps being served;
// after snapshot + restart the degradation persists and the poisoned record
// is never replayed into a fresh session.
func TestPoisonQuarantineAndDeadLetter(t *testing.T) {
	base := t.TempDir()
	deadPath := filepath.Join(base, "dead.jsonl")
	walDir := filepath.Join(base, "wal")
	strategy := &fakeStrategy{budget: 3, poisonRow: 777}
	cfg := durCfg(walDir, 2, strategy)
	cfg.DeadLetterPath = deadPath
	e := newTestEngine(t, cfg)
	healthy, poisoned := testBank(1), testBank(3)
	for i, row := range []int{1, 2, 3} {
		if err := e.Ingest(uerAt(healthy, row, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Ingest(uerAt(poisoned, 777, 10)); err != nil {
		t.Fatal(err)
	}
	// Traffic after the panic: still counted, no longer processed.
	if err := e.Ingest(uerAt(poisoned, 1, 11)); err != nil {
		t.Fatal(err)
	}
	// The healthy bank keeps predicting.
	if err := e.Ingest(uerAt(healthy, 4, 12)); err != nil {
		t.Fatal(err)
	}
	feed(t, e)

	st := e.Stats()
	if st.Quarantined != 1 || st.SessionsDegraded != 1 {
		t.Errorf("quarantined=%d degraded=%d, want 1/1", st.Quarantined, st.SessionsDegraded)
	}
	bad, ok := e.Session(poisoned)
	if !ok || !bad.Degraded {
		t.Fatalf("poisoned session %+v, want degraded", bad)
	}
	if bad.Events != 1 {
		t.Errorf("degraded session Events = %d, want 1 (post-poison traffic only)", bad.Events)
	}
	good, ok := e.Session(healthy)
	if !ok || good.Degraded || good.Actions == 0 {
		t.Errorf("healthy session %+v, want active with actions", good)
	}

	data, err := os.ReadFile(deadPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("dead-letter lines = %d, want 1:\n%s", len(lines), data)
	}
	var dl DeadLetter
	if err := json.Unmarshal([]byte(lines[0]), &dl); err != nil {
		t.Fatalf("dead-letter line %q: %v", lines[0], err)
	}
	if dl.Bank != poisoned.String() || dl.Row != 777 || dl.LSN == 0 {
		t.Errorf("dead letter %+v, want bank %s row 777 with an LSN", dl, poisoned)
	}
	if !strings.Contains(dl.Reason, "poisoned row 777") {
		t.Errorf("dead letter reason %q", dl.Reason)
	}

	// Snapshot, restart: the degraded flag and watermark persist, so the
	// poisoned record does not replay into a fresh session and re-panic.
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)

	e2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after quarantine: %v", err)
	}
	st = e2.Stats()
	if st.Quarantined != 0 {
		t.Errorf("replay re-quarantined %d events; the snapshot should cover the poison", st.Quarantined)
	}
	if st.SessionsDegraded != 1 {
		t.Errorf("SessionsDegraded = %d after restart, want 1", st.SessionsDegraded)
	}
	bad, ok = e2.Session(poisoned)
	if !ok || !bad.Degraded {
		t.Errorf("degradation lost across restart: %+v", bad)
	}
	if err := e2.Ingest(uerAt(poisoned, 2, 20)); err != nil {
		t.Fatal(err)
	}
	feed(t, e2)
	if got, _ := e2.Session(poisoned); got.Events != bad.Events+1 {
		t.Errorf("degraded session stopped counting traffic: %d -> %d", bad.Events, got.Events)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e2)

	// No new dead letters were written during replay or the extra event.
	data, err = os.ReadFile(deadPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(data)), "\n")); got != 1 {
		t.Errorf("dead-letter lines after restart = %d, want 1", got)
	}
}

// TestPoisonAtPromotionQuarantinesTrigger: a quiet session does its feature
// work late — the first UER replays the bank's logged observations — so a
// panic there surfaces on an event other than the one that planted it. The
// contract is unchanged: the event being processed is the one quarantined,
// the session is degraded, the shard totals stay consistent and every other
// bank keeps being served.
func TestPoisonAtPromotionQuarantinesTrigger(t *testing.T) {
	deadPath := filepath.Join(t.TempDir(), "dead.jsonl")
	e := newTestEngine(t, Config{Strategy: &fakeStrategy{budget: 3, poisonLogRow: 555}, Shards: 2, DeadLetterPath: deadPath})
	healthy, poisoned := testBank(1), testBank(3)
	ce := uerAt(poisoned, 555, 0)
	ce.Class = ecc.ClassCE
	feed(t, e, ce, uerAt(healthy, 1, 1), uerAt(healthy, 2, 2))
	if st := e.Stats(); st.Quarantined != 0 || st.SessionsDegraded != 0 {
		t.Fatalf("logging the poisoned observation already quarantined: %+v", st)
	}
	// The first UER replays the log and panics; later traffic is only counted.
	feed(t, e, uerAt(poisoned, 9, 10), uerAt(poisoned, 10, 11), uerAt(healthy, 3, 12))
	if st := e.Stats(); st.Quarantined != 1 || st.SessionsDegraded != 1 || st.Processed != 6 {
		t.Errorf("quarantined=%d degraded=%d processed=%d, want 1/1/6", st.Quarantined, st.SessionsDegraded, st.Processed)
	}
	if bad, ok := e.Session(poisoned); !ok || !bad.Degraded || bad.Events != 2 || bad.Actions != 0 {
		t.Errorf("poisoned session %+v, want degraded with the CE and the post-poison UER counted", bad)
	}
	if good, ok := e.Session(healthy); !ok || good.Degraded || good.Actions == 0 {
		t.Errorf("healthy session %+v, want active with actions", good)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
	data, err := os.ReadFile(deadPath)
	if err != nil {
		t.Fatal(err)
	}
	var dl DeadLetter
	if err := json.Unmarshal(bytes.TrimSpace(data), &dl); err != nil {
		t.Fatalf("dead-letter file %q: %v", data, err)
	}
	if dl.Bank != poisoned.String() || dl.Row != 9 || dl.Class != ecc.ClassUER.String() || !strings.Contains(dl.Reason, "replaying poisoned row 555") {
		t.Errorf("dead letter %+v, want the UER at row 9 of bank %s", dl, poisoned)
	}
}

// ---- snapshot retention ----------------------------------------------------

// TestSnapshotRetention: snapshots retire fully-covered journal segments and
// prune old snapshot files, and the truncated directory still recovers to
// the exact same state.
func TestSnapshotRetention(t *testing.T) {
	dir := t.TempDir()
	strategy := &fakeStrategy{budget: 3}
	cfg := durCfg(dir, 1, strategy)
	cfg.Durability.SegmentBytes = 128 // a few records per segment
	cfg.Durability.SnapshotKeep = 2
	e := newTestEngine(t, cfg)
	seq := 0
	round := func(rows ...int) {
		t.Helper()
		for _, row := range rows {
			seq++
			if err := e.Ingest(uerAt(testBank(row%6), row, seq)); err != nil {
				t.Fatal(err)
			}
		}
		feed(t, e)
	}
	round(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	before := e.Stats().WALSegments
	if before < 3 {
		t.Fatalf("only %d segments before snapshot; shrink SegmentBytes", before)
	}
	for i := 0; i < 3; i++ {
		round(20+i, 30+i)
		if _, err := e.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.WALSegments >= before {
		t.Errorf("segments %d -> %d; snapshot retired nothing", before, st.WALSegments)
	}
	snaps, err := wal.ListSnapshots(wal.OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Errorf("%d snapshot files retained, want <= 2", len(snaps))
	}
	refPayload, _, err := e.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)

	e2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery from truncated journal: %v", err)
	}
	payload, _, err := e2.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload[snapBodyOffset:], refPayload[snapBodyOffset:]) {
		t.Error("state diverged after retention")
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e2)
}

// ---- API edges -------------------------------------------------------------

func TestSnapshotWithoutDurability(t *testing.T) {
	e := newTestEngine(t, Config{})
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if _, err := e.Snapshot(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Snapshot without WAL = %v, want ErrNotDurable", err)
	}
}

// TestDurabilityRequiresDurableStrategy: a durable engine serves a strategy
// whose sessions have no image (In-row) until its first checkpoint, which
// fails naming the strategy and leaves the engine not ready; under Neighbor
// Rows, whose image is empty, a bank of each form checkpoints and comes back
// on a reboot.
func TestDurabilityRequiresDurableStrategy(t *testing.T) {
	geo := hbm.DefaultGeometry
	ce := uerAt(testBank(2), 40, 2)
	ce.Class = ecc.ClassCE
	boot := func(strat core.Strategy, dir string) {
		e := newTestEngine(t, Config{Shards: 1, Strategy: strat, Durability: DurabilityConfig{Dir: dir}})
		feed(t, e, uerAt(testBank(1), 30, 1), ce)
		_, err := e.Snapshot()
		ready := e.ReadyReasons()
		e.Close()
		if name := strat.Name(); (err == nil) != (name == "Neighbor Rows") || err != nil && !strings.Contains(err.Error(), name) {
			t.Fatalf("a checkpoint under %s: %v", name, err)
		}
		if (err == nil) != (len(ready) == 0) {
			t.Fatalf("after a checkpoint that returned %v the engine reports %q", err, ready)
		}
	}
	boot(&core.InRowStrategy{Geometry: geo}, t.TempDir())
	dir := t.TempDir()
	neighbor := &core.NeighborRowsStrategy{Geometry: geo, Block: core.DefaultConfig(core.RandomForest).Block}
	boot(neighbor, dir)
	e := newTestEngine(t, Config{Shards: 1, Strategy: neighbor, Durability: DurabilityConfig{Dir: dir}})
	defer e.Close()
	if st := e.Stats(); st.RecoveredSessions != 2 || st.SessionsLive != 2 || st.SessionsQuiet != 1 {
		t.Errorf("rebooted with %d recovered, %d live and %d quiet banks, want 2, 2 and 1",
			st.RecoveredSessions, st.SessionsLive, st.SessionsQuiet)
	}
}

// TestDrainTimeout pins Drain's budget, kept on the engine's clock, against a
// consumer held at a gate: a Drain over unfinished work times out only once
// the clock passes its budget, Drain(0) waits until the work is done however
// far the clock moves, and a Drain over finished work returns with no advance.
func TestDrainTimeout(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(0, 0))
	gate := make(chan struct{})
	e := newTestEngine(t, Config{Shards: 1, Strategy: &fakeStrategy{budget: 3, gate: gate}, Clock: clock})
	bank := testBank(1)
	for i := 0; i < 30; i++ {
		if err := e.Ingest(uerAt(bank, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(d time.Duration) <-chan error {
		done := make(chan error, 1)
		go func() { done <- e.Drain(d) }()
		return done
	}
	pending := func(done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("Drain returned %v over unfinished work", err)
		default:
		}
	}

	bounded := drain(time.Second)
	clock.BlockUntil(1) // the budget is armed
	clock.Advance(time.Second - 1)
	clock.BlockUntil(1) // and still is: a fired one-shot timer is removed
	pending(bounded)
	clock.Advance(1)
	if err := <-bounded; err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Drain past its budget = %v, want timeout", err)
	}

	unbounded := drain(0)
	for e.waiters.Load() != 1 { // Drain(0) has entered await
		runtime.Gosched()
	}
	clock.Advance(time.Hour)
	pending(unbounded)
	close(gate)
	if err := <-unbounded; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Processed != st.Ingested {
		t.Errorf("processed %d != ingested %d after unbounded drain", st.Processed, st.Ingested)
	}
	if err := e.Drain(time.Nanosecond); err != nil {
		t.Fatalf("Drain over finished work = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
}

// TestDrainCoversEmittedActions: a batch counts as processed only after its
// actions are emitted, so once Drain returns, Stats (and a /metrics scrape)
// already count every action the drained events derive — with no wait. Each
// round gives four row-spare banks on different shards a UER at a fresh row,
// one action apiece.
func TestDrainCoversEmittedActions(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4, Strategy: &fakeStrategy{budget: 1}, ActionBuffer: 1 << 12})
	banks := []hbm.BankAddress{testBank(1), testBank(3), testBank(5), testBank(7)}
	for round := 0; round < 200; round++ {
		evs := make([]mcelog.Event, len(banks))
		for i, bank := range banks {
			evs[i] = uerAt(bank, 1+2*round, round)
		}
		if _, _, err := e.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		feed(t, e)
		if got, want := e.Stats().ActionsEmitted, uint64(len(banks)*(round+1)); got != want {
			t.Fatalf("round %d: %d actions emitted once Drain returned, want %d", round, got, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
}

// TestIngestCloseRace hammers Ingest from many goroutines while Close runs;
// under -race this pins the guarantee that late Ingests get ErrClosed
// instead of racing a closed channel.
func TestIngestCloseRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		e := newTestEngine(t, Config{Shards: 4, QueueDepth: 16})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < 6; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					err := e.Ingest(uerAt(testBank(p), i%10, i))
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil && !errors.Is(err, ErrDropped) {
						t.Error(err)
						return
					}
				}
			}(p)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range e.Actions() {
			}
		}()
		close(start)
		time.Sleep(2 * time.Millisecond)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		<-done
		if st := e.Stats(); st.Processed != st.Ingested {
			t.Errorf("round %d: processed %d != ingested %d", round, st.Processed, st.Ingested)
		}
	}
}
