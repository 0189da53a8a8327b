package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPowerCut pins what a power cut keeps: each file's synced bytes and a
// prefix of the rest, and an in-order prefix of its directory's name
// operations since the last SyncDir, the others undone newest first — a
// rename's replaced file and a removed file come back. Across seeds every
// prefix shows up, and a handle from before the cut writes nothing.
func TestPowerCut(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		dir := t.TempDir()
		path := func(name string) string { return filepath.Join(dir, name) }
		read := func(name string) string {
			b, err := os.ReadFile(path(name))
			if err != nil {
				return "-"
			}
			return string(b)
		}
		for _, name := range []string{"target", "gone"} { // there before the FS: synced as they stand
			os.WriteFile(path(name), []byte(name+"-v1"), 0o644)
		}
		fs := NewFaultFS(OSFS)
		log, _ := fs.OpenFile(path("log"), os.O_RDWR|os.O_CREATE, 0o644)
		log.Write([]byte("sync"))
		log.Sync()
		fs.SyncDir(dir)
		log.Write([]byte("unsync"))
		// Since the SyncDir: a synced tmp created and renamed over target, and gone removed.
		tmp, _ := fs.OpenFile(path("tmp"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		tmp.Write([]byte("target-v2"))
		tmp.Sync()
		tmp.Close()
		fs.Rename(path("tmp"), path("target"))
		fs.Remove(path("gone"))
		if err := fs.PowerCut(seed); err != nil {
			t.Fatal(err)
		}
		if _, err := log.Write([]byte("late")); !errors.Is(err, ErrPowerCut) {
			t.Fatalf("seed %d: write through a handle from before the cut = %v, want ErrPowerCut", seed, err)
		}
		log.Close()
		got := read("log")
		if !strings.HasPrefix(got, "sync") || !strings.HasPrefix("syncunsync", got) {
			t.Fatalf("seed %d: log holds %q, want the synced %q and a prefix of the rest", seed, got, "sync")
		}
		switch names := read("tmp") + " " + read("target") + " " + read("gone"); names {
		case "- target-v1 gone-v1", "target-v2 target-v1 gone-v1", "- target-v2 gone-v1", "- target-v2 -":
			seen[names], seen["log "+got] = true, true
		default:
			t.Fatalf("seed %d: after the cut %s, which no prefix of the name operations leaves", seed, names)
		}
	}
	if len(seen) != 4+7 {
		t.Errorf("64 seeds left %d distinct crash states, want all 4 name prefixes and all 7 log lengths: %v", len(seen), seen)
	}
}
