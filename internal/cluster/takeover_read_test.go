package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cordial/internal/wal"
)

// nodeDirFiles maps every file name in dir to its contents.
func nodeDirFiles(t *testing.T, dir string) map[string]string {
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

// TestTakeoverReadLeavesDirectory: the takeover reads a dead node's newest
// snapshot and every intact journal record, and leaves the node's directory
// byte for byte as the node left it — torn tail and interrupted snapshot
// temp file included. An empty directory stays empty.
func TestTakeoverReadLeavesDirectory(t *testing.T) {
	dir := t.TempDir()
	j, err := wal.Open(dir, wal.Options{SegmentBytes: 64, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.WriteSnapshot(nil, dir, 4, []byte("sessions")); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments %v, %v: want several", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The crash mid-append: a complete zero-filled frame, then a partial one.
	if _, err := f.Write(append(make([]byte, 16), 0x10, 0x00, 0x00, 0x00, 0xde, 0xad)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000009.snap.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := nodeDirFiles(t, dir)

	bundle, err := readNodeState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(bundle.Payload) != "sessions" {
		t.Errorf("snapshot payload = %q", bundle.Payload)
	}
	if len(bundle.Suffix) != n {
		t.Fatalf("takeover read %d records, want %d", len(bundle.Suffix), n)
	}
	for i, r := range bundle.Suffix {
		if r.LSN != uint64(i+1) || string(r.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Errorf("record %d = %d %q", i, r.LSN, r.Payload)
		}
	}
	if after := nodeDirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("takeover changed the dead node's directory: %d files before, %d after", len(before), len(after))
	}

	empty := t.TempDir()
	bundle, err = readNodeState(empty)
	if err != nil || len(bundle.Payload) != 0 || len(bundle.Suffix) != 0 {
		t.Errorf("empty directory read = %+v, %v", bundle, err)
	}
	if files := nodeDirFiles(t, empty); len(files) != 0 {
		t.Errorf("takeover created %d files in an empty directory", len(files))
	}
}
