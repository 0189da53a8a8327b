package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/obs"
	"cordial/internal/trace"
	"cordial/internal/wal"
)

var (
	fitOnce sync.Once
	fitPipe *core.Pipeline
	fitErr  error
)

// testPipeline fits one small pipeline per test binary (fitting dominates
// test time otherwise).
func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	fitOnce.Do(func() {
		spec := trace.DefaultSpec(hbm.DefaultGeometry)
		spec.UERBanks = 60
		spec.BenignBanks = 0
		spec.Seed = 7
		fleet, err := trace.Generate(spec)
		if err != nil {
			fitErr = err
			return
		}
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Params = core.ModelParams{Trees: 10, Depth: 6, Leaves: 15}
		pipe, err := core.New(cfg)
		if err != nil {
			fitErr = err
			return
		}
		if err := pipe.Fit(fleet.Faults); err != nil {
			fitErr = err
			return
		}
		fitPipe = pipe
	})
	if fitErr != nil {
		t.Fatal(fitErr)
	}
	return fitPipe
}

func openTestRegistry(t *testing.T, dir string) *Registry {
	t.Helper()
	r, err := Open(Options{
		Dir:      dir,
		Geometry: hbm.DefaultGeometry,
		Clock:    obs.NewFakeClock(time.Unix(1700000000, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryInstallActivateReopen(t *testing.T) {
	dir := t.TempDir()
	pipe := testPipeline(t)

	r := openTestRegistry(t, dir)
	if s, v := r.ActiveModel(); s != nil || v != 0 {
		t.Fatalf("empty registry reported active (%v, %d)", s, v)
	}
	m1, err := r.Install(pipe, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Version != 1 || m1.Trigger != "boot" {
		t.Fatalf("first install meta = %+v", m1)
	}
	if m1.Model == nil || m1.Model.BankCount != 60 {
		t.Fatalf("install did not carry pipeline meta: %+v", m1.Model)
	}
	m2, err := r.Install(pipe, "train")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != 2 {
		t.Fatalf("second version = %d", m2.Version)
	}
	if err := r.Activate(1); err != nil {
		t.Fatal(err)
	}
	if s, v := r.ActiveModel(); v != 1 || s == nil {
		t.Fatalf("active = (%v, %d), want version 1", s, v)
	}

	// Reopen: active pointer survives, both versions resolvable, and the
	// reloaded model byte-identical to the installed one.
	r2 := openTestRegistry(t, dir)
	if v := r2.ActiveVersion(); v != 1 {
		t.Fatalf("reopened active = %d, want 1", v)
	}
	if r2.Len() != 2 {
		t.Fatalf("reopened len = %d, want 2", r2.Len())
	}
	got, err := r2.Pipeline(2)
	if err != nil {
		t.Fatal(err)
	}
	var want, have bytes.Buffer
	if err := pipe.SaveModels(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.SaveModels(&have); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), have.Bytes()) {
		t.Fatal("reloaded pipeline not byte-identical to installed one")
	}
	if got.Meta() == nil || got.Meta().BankCount != 60 {
		t.Fatalf("reloaded pipeline lost meta: %+v", got.Meta())
	}
	if _, err := r2.ModelByVersion(99); err == nil {
		t.Fatal("unknown version resolved")
	}
}

func TestRegistryInMemoryMode(t *testing.T) {
	pipe := testPipeline(t)
	r, err := Open(Options{Geometry: hbm.DefaultGeometry})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Install(pipe, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(m.Version); err != nil {
		t.Fatal(err)
	}
	if s, v := r.ActiveModel(); s == nil || v != m.Version {
		t.Fatalf("in-memory active = (%v, %d)", s, v)
	}
	if _, err := r.ModelByVersion(m.Version); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryUnfittedRefused(t *testing.T) {
	r, err := Open(Options{Geometry: hbm.DefaultGeometry})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.New(core.DefaultConfig(core.RandomForest))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Install(pipe, "boot"); err == nil {
		t.Fatal("unfitted pipeline installed")
	}
	if err := r.Activate(5); err == nil {
		t.Fatal("unknown version activated")
	}
}

func TestRegistryCorruptArtefactSkipped(t *testing.T) {
	dir := t.TempDir()
	pipe := testPipeline(t)
	r := openTestRegistry(t, dir)
	if _, err := r.Install(pipe, "boot"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Install(pipe, "train"); err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(2); err != nil {
		t.Fatal(err)
	}

	// Corrupt version 2's tail: reopen must skip it and fall back to the
	// highest valid version (1), since the pointer names a corrupt file.
	path := filepath.Join(dir, artName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := openTestRegistry(t, dir)
	if v := r2.ActiveVersion(); v != 1 {
		t.Fatalf("active after corruption = %d, want fallback to 1", v)
	}
	if r2.Len() != 1 {
		t.Fatalf("len after corruption = %d, want 1", r2.Len())
	}
	// A registry with ONLY corrupt artefacts refuses to open.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, artName(1)), data[:50], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir2, Geometry: hbm.DefaultGeometry}); err == nil {
		t.Fatal("registry with only corrupt artefacts opened")
	}
}

func TestRegistryActivePointerFallback(t *testing.T) {
	dir := t.TempDir()
	pipe := testPipeline(t)
	r := openTestRegistry(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := r.Install(pipe, "train"); err != nil {
			t.Fatal(err)
		}
	}
	// No Activate ever called: a fresh open falls back to the highest
	// version rather than serving nothing.
	r2 := openTestRegistry(t, dir)
	if v := r2.ActiveVersion(); v != 3 {
		t.Fatalf("fallback active = %d, want 3", v)
	}
}

func TestRegistryPrune(t *testing.T) {
	dir := t.TempDir()
	pipe := testPipeline(t)
	r, err := Open(Options{Dir: dir, Geometry: hbm.DefaultGeometry, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Install(pipe, "train"); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Activate(1); err != nil { // oldest is active
		t.Fatal(err)
	}
	removed, err := r.Prune(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Versions 2 and 3 go; 1 survives as active, 4 and 5 as the newest 2.
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	left := r.Versions()
	want := []uint64{1, 4, 5}
	if len(left) != len(want) {
		t.Fatalf("versions after prune = %+v", left)
	}
	for i, m := range left {
		if m.Version != want[i] {
			t.Fatalf("versions after prune = %+v, want %v", left, want)
		}
	}
	// The versions an engine needs survive, however old; the others beyond
	// the newest 2 go.
	for i := 0; i < 3; i++ {
		if _, err := r.Install(pipe, "train"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Prune([]uint64{4, 5}); err != nil {
		t.Fatal(err)
	}
	left = r.Versions()
	want = []uint64{1, 4, 5, 7, 8}
	if len(left) != len(want) {
		t.Fatalf("versions after prune = %+v, want %v", left, want)
	}
	for i, m := range left {
		if m.Version != want[i] {
			t.Fatalf("versions after prune = %+v, want %v", left, want)
		}
	}
	// Pruned artefacts are gone from disk; survivors still load.
	if _, err := os.Stat(filepath.Join(dir, artName(2))); !os.IsNotExist(err) {
		t.Fatal("pruned artefact still on disk")
	}
	if _, err := r.ModelByVersion(4); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	pipe := testPipeline(t)
	payload, err := encodePipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	meta := Meta{Version: 3, CreatedAt: time.Unix(1700000000, 0).UTC(), Trigger: "t"}
	path, err := WriteArtifact(nil, dir, meta, payload)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || !bytes.Equal(gotPayload, payload) {
		t.Fatal("round-trip mismatch")
	}
	for name, mut := range map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"tiny":       func(b []byte) []byte { return b[:10] },
		"bad magic":  func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"bad crc":    func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 1; return c },
		"bad format": func(b []byte) []byte { c := append([]byte(nil), b...); c[4] = 99; return c },
		"flipped payload": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[artHdrSize+100] ^= 0xA5
			return c
		},
	} {
		if _, _, err := DecodeArtifact(mut(data)); err == nil {
			t.Errorf("%s artefact accepted", name)
		}
	}
}

func TestWriteArtifactFaultInjection(t *testing.T) {
	pipe := testPipeline(t)
	payload, err := encodePipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := wal.NewFaultFS(wal.OSFS)
	ffs.LimitWriteBytes(100)
	meta := Meta{Version: 1, CreatedAt: time.Unix(1700000000, 0).UTC()}
	if _, err := WriteArtifact(ffs, dir, meta, payload); err == nil {
		t.Fatal("short write not surfaced")
	}
	// The failed write leaves no artefact and no temp file behind.
	arts, err := wal.Numbered(nil, dir, artPrefix, artSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 0 {
		t.Fatalf("failed write left artefacts: %+v", arts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed write left files: %v", entries)
	}
}

// TestPublishesSyncDirectory: an installed artefact and the active pointer
// are each renamed into place and then their directory is synced, so a
// version a crash must not lose survives power loss by name.
func TestPublishesSyncDirectory(t *testing.T) {
	dir := t.TempDir()
	r := openTestRegistry(t, dir)
	fs := wal.NewFaultFS(wal.OSFS)
	var ops []string
	fs.OnOp = func(op, path string) {
		switch op {
		case "rename":
			ops = append(ops, "rename "+filepath.Base(path))
		case "syncdir":
			ops = append(ops, "syncdir "+path)
		}
	}
	r.fs = fs
	m, err := r.Install(testPipeline(t), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Activate(m.Version); err != nil {
		t.Fatal(err)
	}
	want := []string{"rename " + artName(m.Version), "syncdir " + dir, "rename " + activeName, "syncdir " + dir}
	if strings.Join(ops, "|") != strings.Join(want, "|") {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
}
