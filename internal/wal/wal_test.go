package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendN appends n sequential payloads ("rec-0"...) and returns the LSNs.
func appendN(t *testing.T, w *WAL, start, n int) []uint64 {
	t.Helper()
	var lsns []uint64
	for i := start; i < start+n; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

// replayAll collects every (lsn, payload) pair.
func replayAll(t *testing.T, w *WAL) (lsns []uint64, payloads []string) {
	t.Helper()
	err := w.Replay(func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return lsns, payloads
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsns, payloads := replayAll(t, w2)
	if len(lsns) != 10 {
		t.Fatalf("replayed %d records, want 10", len(lsns))
	}
	for i := range lsns {
		if lsns[i] != uint64(i+1) {
			t.Errorf("record %d has lsn %d, want %d", i, lsns[i], i+1)
		}
		if want := fmt.Sprintf("rec-%d", i); payloads[i] != want {
			t.Errorf("record %d payload %q, want %q", i, payloads[i], want)
		}
	}
	if got := w2.NextLSN(); got != 11 {
		t.Errorf("NextLSN after reopen = %d, want 11", got)
	}
	// Appends continue the sequence.
	lsn, err := w2.Append([]byte("after"))
	if err != nil || lsn != 11 {
		t.Errorf("append after reopen: lsn %d err %v", lsn, err)
	}
}

func TestWALRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record or two forces a rotation.
	w, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 20)
	if w.Segments() < 3 {
		t.Fatalf("only %d segments after 20 appends with 64-byte segments", w.Segments())
	}
	lsns, _ := replayAll(t, w)
	if len(lsns) != 20 {
		t.Fatalf("replayed %d, want 20", len(lsns))
	}

	// Retention: drop everything below LSN 15; the survivors must still
	// include every record >= 15 (whole segments only, so a few earlier
	// records may survive too).
	if err := w.TruncateBefore(15); err != nil {
		t.Fatal(err)
	}
	lsns, _ = replayAll(t, w)
	if len(lsns) == 20 {
		t.Error("TruncateBefore removed nothing")
	}
	seen := map[uint64]bool{}
	for _, l := range lsns {
		seen[l] = true
	}
	for l := uint64(15); l <= 20; l++ {
		if !seen[l] {
			t.Errorf("record %d lost by retention", l)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen after retention: sequence continues.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.NextLSN(); got != 21 {
		t.Errorf("NextLSN after retention reopen = %d, want 21", got)
	}
}

// lastSegmentPath returns the path of the newest segment file.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := Numbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segName(segs[len(segs)-1]))
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	w.Close()

	// Simulate a crash mid-append: a partial frame at the tail.
	path := lastSegmentPath(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer w2.Close()
	lsns, _ := replayAll(t, w2)
	if len(lsns) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(lsns))
	}
	// The torn bytes are gone; the next append lands cleanly and is
	// readable on yet another reopen.
	if lsn, err := w2.Append([]byte("post-repair")); err != nil || lsn != 6 {
		t.Fatalf("append after repair: lsn %d err %v", lsn, err)
	}
	w2.Close()
	w3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if lsns, payloads := replayAll(t, w3); len(lsns) != 6 || payloads[5] != "post-repair" {
		t.Fatalf("post-repair replay: %v %v", lsns, payloads)
	}
}

func TestWALCorruptTailRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	w.Close()

	// Flip one payload byte of the final record: CRC must reject it and
	// Open must truncate it away as a torn tail.
	path := lastSegmentPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with corrupt tail record: %v", err)
	}
	defer w2.Close()
	lsns, _ := replayAll(t, w2)
	if len(lsns) != 2 {
		t.Fatalf("replayed %d records, want 2 (corrupt final record dropped)", len(lsns))
	}
	if got := w2.NextLSN(); got != 3 {
		t.Errorf("NextLSN = %d, want 3 (lsn of the dropped record reused)", got)
	}
}

func TestWALInteriorCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 12) // multiple segments
	if w.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", w.Segments())
	}
	// Corrupt a record in the FIRST segment — acknowledged data in the
	// journal interior. Replay must refuse, not silently skip.
	segs, _ := Numbered(OSFS, dir, segPrefix, segSuffix)
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHdrSize+recHdrSize] ^= 0xff // first payload byte of first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = w.Replay(func(lsn uint64, payload []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over interior corruption = %v, want ErrCorrupt", err)
	}
	w.Close()
}

func TestWALDamagedFinalSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 6)
	nsegs := w.Segments()
	if nsegs < 2 {
		t.Fatalf("need >= 2 segments, got %d", nsegs)
	}
	w.Close()
	// A crash during rotation can leave a header-less final segment.
	if err := os.WriteFile(lastSegmentPath(t, dir), []byte("xx"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with damaged final segment: %v", err)
	}
	defer w2.Close()
	lsns, _ := replayAll(t, w2)
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatalf("non-contiguous lsns after repair: %v", lsns)
		}
	}
	// Every record of the surviving segments replays, and appends resume
	// exactly after the last surviving record.
	if got := w2.NextLSN(); len(lsns) > 0 && got != lsns[len(lsns)-1]+1 {
		t.Errorf("NextLSN %d after %d surviving records", got, len(lsns))
	}
}

func TestWALFsyncFailureSurfaces(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: ffs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAfter(0)
	if _, err := w.Append([]byte("doomed")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append with failing fsync = %v, want ErrInjectedSync", err)
	}
	ffs.FailSyncAfter(-1)
	if _, err := w.Append([]byte("recovered")); err != nil {
		t.Fatalf("append after fsync recovers: %v", err)
	}
}

func TestWALPartialWriteRepairedOnReopen(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: ffs, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	// Allow 5 more bytes: the next frame is written partially, exactly
	// like a crash mid-write.
	ffs.LimitWriteBytes(5)
	if _, err := w.Append([]byte("torn-record")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("append with write fault = %v, want ErrInjectedWrite", err)
	}
	w.Close()
	ffs.LimitWriteBytes(-1)

	w2, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatalf("open after partial write: %v", err)
	}
	defer w2.Close()
	lsns, _ := replayAll(t, w2)
	if len(lsns) != 3 {
		t.Fatalf("replayed %d records, want the 3 intact ones", len(lsns))
	}
	if got := w2.NextLSN(); got != 4 {
		t.Errorf("NextLSN = %d, want 4", got)
	}
}

// TestWALPowerCutRepair: whatever a power cut leaves of the unsynced tail —
// nothing, whole frames, a torn frame or a torn header, with or without
// rotations since — Open repairs the journal to a prefix of what was
// appended, under its own LSNs, and an append after the repair survives the
// next reopen.
func TestWALPowerCutRepair(t *testing.T) {
	kept := map[int]bool{}
	for seed := uint64(0); seed < 48; seed++ {
		dir, ffs := t.TempDir(), NewFaultFS(OSFS)
		opts := Options{FS: ffs, Sync: SyncNever, SegmentBytes: 128}
		w, _ := Open(dir, opts)
		appendN(t, w, 0, 3)
		w.Close() // synced
		w, _ = Open(dir, opts)
		appendN(t, w, 3, 2+int(seed%6))
		if err := ffs.PowerCut(seed); err != nil {
			t.Fatal(err)
		}
		w.Close()
		w, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("seed %d: open after the cut: %v", seed, err)
		}
		lsns, payloads := replayAll(t, w)
		for i := range lsns {
			if lsns[i] != uint64(i+1) || payloads[i] != fmt.Sprintf("rec-%d", i) {
				t.Fatalf("seed %d: replayed %v %v, want a prefix of rec-0… at LSNs 1…", seed, lsns, payloads)
			}
		}
		if lsn, err := w.Append([]byte("post-repair")); len(lsns) < 3 || err != nil || lsn != uint64(len(lsns)+1) {
			t.Fatalf("seed %d: %d records survived; append after the repair: LSN %d, %v", seed, len(lsns), lsn, err)
		}
		w.Close()
		w, _ = Open(dir, opts)
		if again, payloads := replayAll(t, w); len(again) != len(lsns)+1 || payloads[len(lsns)] != "post-repair" {
			t.Fatalf("seed %d: after the repair replayed %v", seed, payloads)
		}
		w.Close()
		kept[len(lsns)] = true
	}
	if len(kept) < 4 {
		t.Errorf("48 cuts kept only %v records", kept)
	}
}

func TestSnapshotRoundTripAndFallback(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadLatestSnapshot(OSFS, dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty dir load = %v, want ErrNoSnapshot", err)
	}
	p1 := bytes.Repeat([]byte("alpha"), 100)
	p2 := bytes.Repeat([]byte("beta"), 100)
	if _, err := WriteSnapshot(OSFS, dir, 1, p1); err != nil {
		t.Fatal(err)
	}
	path2, err := WriteSnapshot(OSFS, dir, 2, p2)
	if err != nil {
		t.Fatal(err)
	}
	seq, payload, err := LoadLatestSnapshot(OSFS, dir)
	if err != nil || seq != 2 || !bytes.Equal(payload, p2) {
		t.Fatalf("load = seq %d err %v", seq, err)
	}

	// Corrupt the newest snapshot: load must fall back to seq 1.
	data, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	data[snapHdrSize+3] ^= 0xff
	if err := os.WriteFile(path2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, payload, err = LoadLatestSnapshot(OSFS, dir)
	if err != nil || seq != 1 || !bytes.Equal(payload, p1) {
		t.Fatalf("fallback load = seq %d err %v", seq, err)
	}

	// Prune keeps the newest N files (validity aside).
	for s := uint64(3); s <= 6; s++ {
		if _, err := WriteSnapshot(OSFS, dir, s, p1); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneSnapshots(OSFS, dir, 2); err != nil {
		t.Fatal(err)
	}
	snaps, err := ListSnapshots(OSFS, dir)
	if err != nil || len(snaps) != 2 {
		t.Fatalf("after prune: %d snapshots (%v)", len(snaps), err)
	}
	if snaps[0].Seq != 6 || snaps[1].Seq != 5 {
		t.Errorf("prune kept %v, want seqs 6 and 5", snaps)
	}
}

func TestSnapshotWriteFaultLeavesOldSnapshots(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	if _, err := WriteSnapshot(ffs, dir, 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	ffs.FailSyncAfter(0)
	if _, err := WriteSnapshot(ffs, dir, 2, []byte("doomed")); err == nil {
		t.Fatal("snapshot write with failing fsync succeeded")
	}
	ffs.FailSyncAfter(-1)
	seq, payload, err := LoadLatestSnapshot(ffs, dir)
	if err != nil || seq != 1 || string(payload) != "good" {
		t.Fatalf("load after failed write = seq %d payload %q err %v", seq, payload, err)
	}
	// The aborted temp file must not linger once a WAL opens in the dir.
	w, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == tmpSuffix {
			t.Errorf("stale temp file %s survived", e.Name())
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	for _, bogus := range []string{"sometimes", "interval"} {
		if _, err := ParseSyncPolicy(bogus); err == nil {
			t.Errorf("policy %q accepted", bogus)
		}
	}
}
