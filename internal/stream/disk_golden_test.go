package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cordial/internal/registry"
)

// durableDir is a durability directory written by the commit before the
// journal's three segment walkers became one reader and the snapshot,
// artefact and active-pointer writers became one publish, and
// durableDirHashes is what that commit recorded about it: the SHA-256 of
// every file, and of the engine snapshot recovered from the directory.
var (
	durableDir       = filepath.Join("testdata", "durable_dir")
	durableDirHashes = filepath.Join("testdata", "durable_dir.sha256")
)

// recoveredSnapshotName is the hash file's entry for the recovered engine
// snapshot; it names no file.
const recoveredSnapshotName = "(recovered engine snapshot)"

// writeDurableDir fills dir with every kind of file Cordial writes: a
// two-segment journal of the golden fleet whose last segment ends in a torn
// frame, two engine snapshots, and under models/ one model artefact with
// fixed metadata and the active pointer naming it.
func writeDurableDir(t *testing.T, dir string) {
	t.Helper()
	cfg := durCfg(dir, 2, nil)
	cfg.Durability.SegmentBytes = 384
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := goldenSnapshotEvents()
	for _, part := range [][]int{{0, 6}, {6, 12}, {12, len(evs)}} {
		if part[0] > 0 {
			if _, err := e.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range evs[part[0]:part[1]] {
			if err := e.Ingest(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("journal segments %v, %v: want 2", segs, err)
	}
	f, err := os.OpenFile(segs[1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xc0, 0xff, 0xee}); err != nil { // a crash mid-append
		t.Fatal(err)
	}
	f.Close()

	models := filepath.Join(dir, "models")
	meta := registry.Meta{Version: 1, CreatedAt: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), Trigger: "boot"}
	if _, err := registry.WriteArtifact(nil, models, meta, []byte("a fitted pipeline's SaveModels stream")); err != nil {
		t.Fatal(err)
	}
	r, err := registry.Open(registry.Options{Dir: models})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(1); err != nil {
		t.Fatal(err)
	}
}

// hashDir returns "<sha256>  <path>" for every file under dir, by path.
func hashDir(t *testing.T, dir string) []string {
	t.Helper()
	var lines []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		lines = append(lines, hashLine(data, filepath.ToSlash(rel)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(lines)
	return lines
}

func hashLine(data []byte, name string) string {
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s  %s", hex.EncodeToString(sum[:]), name)
}

// recoverDurableDir recovers an engine from a copy of dir and returns the
// hash line of its snapshot payload.
func recoverDurableDir(t *testing.T, dir string) string {
	t.Helper()
	cp := t.TempDir()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.Mkdir(filepath.Join(cp, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(cp, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(durCfg(cp, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := e.encodeSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	drainActions(e)
	r, err := registry.Open(registry.Options{Dir: filepath.Join(cp, "models")})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := r.MetaOf(1); r.ActiveVersion() != 1 || !ok || m.Trigger != "boot" {
		t.Fatalf("registry recovered active %d, meta %+v", r.ActiveVersion(), m)
	}
	return hashLine(payload, recoveredSnapshotName)
}

// TestDurableDirGolden pins every on-disk byte — CWAL segments, CSNP
// snapshots, the CMDL artefact and ACTIVE — against a directory written
// at an older commit: its files still hash as recorded there, recovery from
// it yields the engine snapshot recovered there, and this code writing the
// same inputs writes the same bytes.
func TestDurableDirGolden(t *testing.T) {
	if *updateGolden {
		if err := os.RemoveAll(durableDir); err != nil {
			t.Fatal(err)
		}
		writeDurableDir(t, durableDir)
		lines := append(hashDir(t, durableDir), recoverDurableDir(t, durableDir))
		if err := os.WriteFile(durableDirHashes, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	text, err := os.ReadFile(durableDirHashes)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(text)), "\n")
	files, recovered := want[:len(want)-1], want[len(want)-1]

	if got := hashDir(t, durableDir); !slices.Equal(got, files) {
		t.Errorf("checked-in directory hashes\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(files, "\n"))
	}
	if got := recoverDurableDir(t, durableDir); got != recovered {
		t.Errorf("recovered snapshot %s, want %s", got, recovered)
	}
	fresh := t.TempDir()
	writeDurableDir(t, fresh)
	if got := hashDir(t, fresh); !slices.Equal(got, files) {
		t.Errorf("rewritten directory hashes\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(files, "\n"))
	}
}
