package wal

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// dirFiles maps every file name in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestReadJournal pins the read-only journal read under cluster takeover:
// every record in LSN order across segment rotations, payloads that stay
// valid after the journal closes, and a directory left byte for byte as it
// was — torn tail and stray temp file included, an empty directory still
// empty and a missing one still missing.
func TestReadJournal(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several rotations so the read spans files.
	w, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", w.Segments())
	}
	recs, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(recs []Record) {
		t.Helper()
		if len(recs) != n {
			t.Fatalf("read %d records, want %d", len(recs), n)
		}
		for i, r := range recs {
			if r.LSN != uint64(i+1) {
				t.Errorf("record %d LSN = %d, want %d", i, r.LSN, i+1)
			}
			// Payloads are copies: still correct after Close.
			if want := fmt.Sprintf("record-%02d", i); string(r.Payload) != want {
				t.Errorf("record %d payload = %q, want %q", i, r.Payload, want)
			}
		}
	}
	check(recs)

	// A dead node's directory: an interrupted snapshot, and a torn tail
	// whose first frame is complete but zero-filled, as a crash can leave a
	// file extended over blocks never written.
	f, err := os.OpenFile(lastSegmentPath(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(make([]byte, recHdrSize), 0x10, 0x00, 0x00, 0x00, 0xde, 0xad)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000009.snap"+tmpSuffix), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	recs, err = ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(recs)
	if !maps.Equal(dirFiles(t, dir), before) {
		t.Error("ReadJournal changed the directory it read")
	}

	empty := t.TempDir()
	if recs, err := ReadJournal(empty); err != nil || len(recs) != 0 {
		t.Errorf("empty directory read = %d records, %v", len(recs), err)
	}
	if files := dirFiles(t, empty); len(files) != 0 {
		t.Errorf("ReadJournal created %v in an empty directory", files)
	}
	missing := filepath.Join(empty, "gone")
	if recs, err := ReadJournal(missing); err != nil || len(recs) != 0 {
		t.Errorf("missing directory read = %d records, %v", len(recs), err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("ReadJournal created the missing directory: %v", err)
	}
}

// TestSealedSegmentBadFinalRecordIsCorrupt: a complete record that fails its
// CRC in a sealed segment is lost acknowledged data, the segment's final
// record included — Replay and ReadJournal report ErrCorrupt rather than
// skip it.
func TestSealedSegmentBadFinalRecordIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	// 21-byte frames: the first segment seals after six records.
	w, err := Open(dir, Options{SegmentBytes: segHdrSize + 6*21, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 12)
	if w.Segments() != 2 {
		t.Fatalf("want 2 segments, got %d", w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Numbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // last payload byte of the sealed segment's last record
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	var replayed int
	err = w2.Replay(func(uint64, []byte) error { replayed++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over a sealed segment's bad final record = %v after %d records, want ErrCorrupt", err, replayed)
	}
	if _, err := ReadJournal(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadJournal over a sealed segment's bad final record = %v, want ErrCorrupt", err)
	}
}

// TestFailedWriteKeepsLaterAppends: a write that fails partway is cut back
// off the segment, so the appends acknowledged after it survive a restart
// under their own LSNs.
func TestFailedWriteKeepsLaterAppends(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: ffs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	ffs.LimitWriteBytes(5)
	if _, err := w.Append([]byte("torn-record")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("append with write fault = %v, want ErrInjectedWrite", err)
	}
	ffs.LimitWriteBytes(-1)
	if lsns := appendN(t, w, 3, 4); lsns[0] != 4 || lsns[3] != 7 {
		t.Fatalf("appends after the failed write got LSNs %v, want 4..7", lsns)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsns, payloads := replayAll(t, w2)
	if len(lsns) != 7 {
		t.Fatalf("replayed LSNs %v after restart, want 1..7", lsns)
	}
	for i, p := range payloads {
		if want := fmt.Sprintf("rec-%d", i); p != want {
			t.Errorf("record %d payload %q, want %q", i, p, want)
		}
	}
	if got := w2.NextLSN(); got != 8 {
		t.Errorf("NextLSN = %d, want 8", got)
	}
}

// cutFailFS fails Truncate on every file once armed.
type cutFailFS struct {
	FS
	fail bool
}

func (fs *cutFailFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return cutFailFile{File: f, fs: fs}, nil
}

type cutFailFile struct {
	File
	fs *cutFailFS
}

var errInjectedTruncate = errors.New("test: injected truncate fault")

func (f cutFailFile) Truncate(size int64) error {
	if f.fs.fail {
		return errInjectedTruncate
	}
	return f.File.Truncate(size)
}

// TestFailedCutRefusesAppends: when a failed write cannot be cut back off
// the segment, the journal refuses every later append instead of writing it
// behind the torn frame, and a restart keeps every acknowledged record.
func TestFailedCutRefusesAppends(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	cfs := &cutFailFS{FS: ffs}
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: cfs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	ffs.LimitWriteBytes(5)
	cfs.fail = true
	if _, err := w.Append([]byte("torn-record")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("append with write fault = %v, want ErrInjectedWrite", err)
	}
	ffs.LimitWriteBytes(-1)
	cfs.fail = false
	for i := 0; i < 2; i++ {
		if _, err := w.Append([]byte("refused")); !errors.Is(err, errInjectedTruncate) || !strings.Contains(err.Error(), "refuses appends") {
			t.Fatalf("append after a failed cut = %v, want the journal's refusal", err)
		}
	}
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lsns, _ := replayAll(t, w2); len(lsns) != 3 || w2.NextLSN() != 4 {
		t.Fatalf("replayed %v, NextLSN %d after restart; want 1..3 and 4", lsns, w2.NextLSN())
	}
}

// opLogFS records renames and directory syncs in order.
type opLogFS struct {
	FS
	ops []string
}

func (fs *opLogFS) Rename(oldpath, newpath string) error {
	fs.ops = append(fs.ops, "rename "+filepath.Base(newpath))
	return fs.FS.Rename(oldpath, newpath)
}

func (fs *opLogFS) SyncDir(dir string) error {
	fs.ops = append(fs.ops, "syncdir "+dir)
	return fs.FS.SyncDir(dir)
}

// TestDirectoriesSynced: a new segment's directory entry is synced before a
// record in it can be acknowledged, a published snapshot's directory is
// synced after its rename, and a failed directory sync fails the operation.
func TestDirectoriesSynced(t *testing.T) {
	fs := &opLogFS{FS: OSFS}
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: fs, SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 6)
	segs := w.Segments()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := make([]string, segs)
	for i := range want {
		want[i] = "syncdir " + dir
	}
	if !slices.Equal(fs.ops, want) {
		t.Errorf("segment creation ops = %v, want %v", fs.ops, want)
	}

	fs.ops = nil
	if _, err := WriteSnapshot(fs, dir, 7, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"rename snap-0000000000000007.snap", "syncdir " + dir}; !slices.Equal(fs.ops, want) {
		t.Errorf("snapshot publish ops = %v, want %v", fs.ops, want)
	}

	// FaultFS fails directory syncs under its sync budget: the segment
	// header's sync succeeds, its directory's fails, and so does Open.
	ffs := NewFaultFS(OSFS)
	ffs.FailSyncAfter(1)
	if _, err := Open(t.TempDir(), Options{FS: ffs}); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("open with a failing directory sync = %v, want ErrInjectedSync", err)
	}
	ffs.FailSyncAfter(1)
	pub := filepath.Join(t.TempDir(), "f")
	if err := Publish(ffs, pub, []byte("x")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("publish with a failing directory sync = %v, want ErrInjectedSync", err)
	}
	if _, syncs := ffs.Faults(); syncs != 2 {
		t.Errorf("FaultFS counted %d sync faults, want 2", syncs)
	}
}

// TestRotationRetriesAfterFailure: a rotation whose new segment cannot be
// made durable fails its append and leaves the sealed segment current, so
// the next append retries the rotation and the journal carries on.
func TestRotationRetriesAfterFailure(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: ffs, SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)  // 8 + 3×21 bytes: the next append rotates
	ffs.FailSyncAfter(2) // the sealed segment's and the new header's syncs pass, the directory's fails
	if _, err := w.Append([]byte("rec-3")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append across a failed rotation = %v, want ErrInjectedSync", err)
	}
	ffs.FailSyncAfter(-1)
	appendN(t, w, 3, 3)
	if w.Segments() != 2 {
		t.Fatalf("%d segments after the retried rotation, want 2", w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lsns, _ := replayAll(t, w2); len(lsns) != 6 || lsns[5] != 6 {
		t.Fatalf("replayed %v, want 1..6", lsns)
	}
}

// TestFailedAppendReusesNoLSN: an append whose frames reached the segment
// before it failed — a batch cut off by a failed rotation after its first
// frame was flushed into the sealed segment, or a record whose fsync failed —
// leaves those frames on disk, so the LSNs they carry are never handed out
// again: after a restart the journal replays each LSN once, the records
// acknowledged after the failures included.
func TestFailedAppendReusesNoLSN(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: ffs, SegmentBytes: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 2)  // 8 + 2×21 bytes: the batch's first frame fills the segment
	ffs.FailSyncAfter(2) // the sealed segment's and the new header's syncs pass, the directory's fails
	if _, err := w.AppendBatch([]byte("rec-Xrec-Xrec-X"), 5); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("batch across a failed rotation = %v, want ErrInjectedSync", err)
	}
	ffs.FailSyncAfter(-1)
	appendN(t, w, 2, 2) // the retried rotation
	ffs.FailSyncAfter(0)
	if _, err := w.Append([]byte("rec-Y")); !errors.Is(err, ErrInjectedSync) {
		t.Fatalf("append under a failing fsync = %v, want ErrInjectedSync", err)
	}
	ffs.FailSyncAfter(-1)
	appendN(t, w, 4, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// The batch's first frame and the unsynced record replay too: an append
	// error promises only that nothing may be counted on, not that nothing
	// lands.
	lsns, payloads := replayAll(t, w2)
	want := []string{"rec-0", "rec-1", "rec-X", "rec-2", "rec-3", "rec-Y", "rec-4", "rec-5"}
	if !slices.Equal(lsns, []uint64{1, 2, 3, 4, 5, 6, 7, 8}) || !slices.Equal(payloads, want) || w2.NextLSN() != 9 {
		t.Fatalf("replayed %v %v, NextLSN %d; want LSNs 1..8 for %v and 9", lsns, payloads, w2.NextLSN(), want)
	}
}

// TestFailedFlushFailsOpenWindow: a write that fails while a group-commit
// window is open — a rotation's flush, say — drops frames the window's
// followers staged, so the window's verdict is that failure even though the
// leader's own later flush succeeds.
func TestFailedFlushFailsOpenWindow(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	w, err := Open(t.TempDir(), Options{FS: ffs, Sync: SyncAlways, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.mu.Lock()
	win := &commitWindow{done: make(chan struct{})}
	w.window = win
	if _, err := w.stageLocked([]byte("follower")); err != nil {
		t.Fatal(err)
	}
	ffs.LimitWriteBytes(3)
	err = w.flushLocked()
	ffs.LimitWriteBytes(-1)
	w.window = nil
	w.mu.Unlock()
	if !errors.Is(err, ErrInjectedWrite) || !errors.Is(win.err, ErrInjectedWrite) {
		t.Fatalf("flush = %v, window verdict = %v; want both ErrInjectedWrite", err, win.err)
	}
}

// TestFailedBatchLeavesNoRecords: a batch write that fails after some of its
// frames reached the disk is cut back off whole. A shorter append that
// follows must not leave the batch's later frames — valid CRCs, LSNs the
// journal hands out again — behind it for the next Open to resurrect.
func TestFailedBatchLeavesNoRecords(t *testing.T) {
	ffs := NewFaultFS(OSFS)
	dir := t.TempDir()
	w, err := Open(dir, Options{FS: ffs, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	batch := []byte("rec-Xrec-Xrec-Xrec-X") // four 5-byte records, 21-byte frames
	ffs.LimitWriteBytes(3*21 + 4)
	if _, err := w.AppendBatch(batch, 5); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("batch with write fault = %v, want ErrInjectedWrite", err)
	}
	ffs.LimitWriteBytes(-1)
	appendN(t, w, 3, 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if lsns, payloads := replayAll(t, w2); len(lsns) != 4 || payloads[3] != "rec-3" || w2.NextLSN() != 5 {
		t.Fatalf("replayed %v %v, NextLSN %d; want rec-0..rec-3 and 5", lsns, payloads, w2.NextLSN())
	}
}
