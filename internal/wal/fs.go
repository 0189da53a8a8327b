package wal

import (
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"cordial/internal/xrand"
)

// FS is the slice of filesystem behaviour the journal and snapshot code
// depend on. Production code uses OSFS; fault-injection tests substitute a
// FaultFS to make writes run short, syncs fail, or opens error — the
// failure modes a crash-safe log must survive without panicking.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir flushes a directory's entries to stable storage, making the
	// files created in it and renamed into it durable by name.
	SyncDir(dir string) error
}

// File is the open-file surface the journal uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to stable storage.
	Sync() error
	// Truncate cuts the file to the given size (torn-tail repair).
	Truncate(size int64) error
	// Seek repositions the read/write offset.
	Seek(offset int64, whence int) (int64, error)
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

// orOS is fs, or OSFS for nil: every exported function here that takes an
// FS reads nil as the real filesystem.
func orOS(fs FS) FS {
	if fs == nil {
		return OSFS
	}
	return fs
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Injected fault sentinels returned by FaultFS.
var (
	// ErrInjectedWrite is returned once the configured write budget is
	// exhausted; the write that hits it is partial.
	ErrInjectedWrite = errors.New("wal: injected write fault (budget exhausted)")
	// ErrInjectedSync is returned by Sync after the configured number of
	// successful syncs.
	ErrInjectedSync = errors.New("wal: injected sync fault")
	// ErrInjectedOpen, ErrInjectedTruncate and ErrInjectedRemove are returned
	// by OpenFile, Truncate and Remove when their faults are armed.
	ErrInjectedOpen     = errors.New("wal: injected open fault")
	ErrInjectedTruncate = errors.New("wal: injected truncate fault")
	ErrInjectedRemove   = errors.New("wal: injected remove fault")
	// ErrPowerCut is returned by a write, sync or truncate through a file
	// opened before the last PowerCut.
	ErrPowerCut = errors.New("wal: file opened before a power cut")
)

// FaultFS wraps another FS and injects the failures a crash-safe journal must
// turn into a clean error, never a panic and never a lost acknowledged record:
// partial writes after a byte budget, fsync errors after a sync count (file
// and directory syncs alike), and open, truncate and remove errors. The knobs
// are safe for concurrent use and may be re-armed mid-test.
//
// PowerCut loses power. FaultFS tracks each file it opens for writing by its
// synced length (its write position at its last Sync, for every writer here
// appends; a file it first meets counts as synced as it stands), and each
// directory by its name operations (creates, renames, removes) since its last
// SyncDir. A cut keeps each file's synced bytes and a seeded prefix of the
// rest, which tears the last write, and a seeded in-order prefix of each
// directory's name operations, undoing the others newest first: a created
// file goes, a renamed file goes back and the file it replaced comes back, a
// removed file comes back with its synced bytes. Every handle opened before
// the cut then fails its writes, syncs and truncates with ErrPowerCut.
//
// It does not generate: a file whose later bytes survive an earlier lost one;
// a lost truncate (a Truncate, O_TRUNC included, is synced at once); a lost
// directory (MkdirAll is synced at once); one directory's name operations
// surviving out of order; or damage to synced bytes. A rename is filed under
// its target's directory, and a file it has not met that is opened with
// O_CREATE counts as created.
type FaultFS struct {
	FS // the wrapped filesystem

	// OnOp, when set, is called before each operation with its name
	// ("open", "write", "sync", "truncate", "rename", "remove" or "syncdir")
	// and its path (a rename's target): a test records the order of
	// operations through it, or parks one. Set it before the FS is shared.
	OnOp func(op, path string)

	mu                                    sync.Mutex
	writeBudget                           int64 // bytes writable before ErrInjectedWrite; <0 = unlimited
	syncsLeft                             int   // successful syncs before ErrInjectedSync; <0 = unlimited
	failOpens, failTruncates, failRemoves bool
	writeFaults, syncFaults               int

	cuts    int                 // power cuts so far: a handle from before the last is dead
	synced  map[string]int64    // each tracked file's synced length
	pending map[string][]nameOp // each directory's name operations since its last SyncDir
}

// nameOp is one unsynced name operation: a create of path ('c'), a rename of
// from to path ('r') or a remove of path ('x'). When back is set, lost is the
// synced content of the file the operation took away from path.
type nameOp struct {
	kind       byte
	path, from string
	back       bool
	lost       []byte
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{FS: inner, writeBudget: -1, syncsLeft: -1, synced: map[string]int64{}, pending: map[string][]nameOp{}}
}

func (f *FaultFS) locked(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn()
}

// LimitWriteBytes arms the write fault: after n more bytes are written
// (across all files), the write that crosses the budget is cut short and
// returns ErrInjectedWrite. n < 0 disarms.
func (f *FaultFS) LimitWriteBytes(n int64) { f.locked(func() { f.writeBudget = n }) }

// FailSyncAfter arms the sync fault: the next n Sync or SyncDir calls
// succeed, every later one returns ErrInjectedSync. n < 0 disarms.
func (f *FaultFS) FailSyncAfter(n int) { f.locked(func() { f.syncsLeft = n }) }

// FailOpens, FailTruncates and FailRemoves make every later OpenFile,
// Truncate or Remove fail with its injected error, or stop it.
func (f *FaultFS) FailOpens(fail bool)     { f.locked(func() { f.failOpens = fail }) }
func (f *FaultFS) FailTruncates(fail bool) { f.locked(func() { f.failTruncates = fail }) }
func (f *FaultFS) FailRemoves(fail bool)   { f.locked(func() { f.failRemoves = fail }) }

// Disarm clears every fault, returning f to pass-through behaviour.
func (f *FaultFS) Disarm() {
	f.LimitWriteBytes(-1)
	f.FailSyncAfter(-1)
	f.FailOpens(false)
	f.FailTruncates(false)
	f.FailRemoves(false)
}

// Faults reports how many write and sync faults have fired.
func (f *FaultFS) Faults() (writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeFaults, f.syncFaults
}

func (f *FaultFS) hook(op, path string) {
	if f.OnOp != nil {
		f.OnOp(op, path)
	}
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.hook("open", name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failOpens {
		return nil, ErrInjectedOpen
	}
	inner, err := f.FS.OpenFile(name, flag, perm)
	if _, known := f.synced[name]; err == nil && flag&(os.O_WRONLY|os.O_RDWR) != 0 && (!known || flag&os.O_TRUNC != 0) {
		if !known && flag&os.O_CREATE != 0 {
			f.logOp(nameOp{kind: 'c', path: name})
		}
		f.synced[name], err = inner.Seek(0, io.SeekEnd)
		if _, serr := inner.Seek(0, io.SeekStart); err != nil || serr != nil {
			inner.Close()
			return nil, errors.Join(err, serr)
		}
	}
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f, name: name, cut: f.cuts}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.hook("rename", newpath)
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.taking(nameOp{kind: 'r', path: newpath, from: oldpath})
	if err := f.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.move(oldpath, newpath)
	f.logOp(op)
	return nil
}

func (f *FaultFS) Remove(name string) error {
	f.hook("remove", name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failRemoves {
		return ErrInjectedRemove
	}
	op := f.taking(nameOp{kind: 'x', path: name})
	if err := f.FS.Remove(name); err != nil {
		return err
	}
	delete(f.synced, name)
	f.logOp(op)
	return nil
}

func (f *FaultFS) SyncDir(dir string) error {
	f.hook("syncdir", dir)
	if err := f.syncFault(); err != nil {
		return err
	}
	if err := f.FS.SyncDir(dir); err != nil {
		return err
	}
	f.locked(func() { delete(f.pending, filepath.Clean(dir)) })
	return nil
}

// PowerCut loses power: see FaultFS for what survives. The seed and a file's
// base name pick how much of its unsynced tail is kept, and the seed and the
// base name of the first file a directory's unsynced name operations touched
// pick how many of them are, so a cut does not depend on where the directory
// lives. Armed faults stay armed.
func (f *FaultFS) PowerCut(seed uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cuts++
	pick := func(key string, n int64) int64 {
		return int64(xrand.New(seed ^ uint64(crc32.Checksum([]byte(key), crcTable))).Uint64n(uint64(n)))
	}
	for name, keep := range f.synced {
		g, err := f.FS.OpenFile(name, os.O_WRONLY, 0)
		if err != nil {
			delete(f.synced, name) // gone behind the FS's back
			continue
		}
		size, err := g.Seek(0, io.SeekEnd)
		if err == nil && size > keep {
			keep += pick(filepath.Base(name), size-keep+1)
			err = g.Truncate(keep)
		}
		if err = errors.Join(err, g.Close()); err != nil {
			return err
		}
		f.synced[name] = min(keep, size)
	}
	for _, ops := range f.pending {
		for i, k := len(ops)-1, int(pick("dir "+filepath.Base(ops[0].path), int64(len(ops)+1))); i >= k; i-- {
			if err := f.undo(ops[i]); err != nil {
				return err
			}
		}
	}
	clear(f.pending)
	return nil
}

// undo reverses one name operation for PowerCut. Callers hold f.mu, as for
// taking, move and logOp, which keep the power-cut model.
func (f *FaultFS) undo(op nameOp) error {
	if op.kind == 'c' {
		delete(f.synced, op.path)
		return f.FS.Remove(op.path)
	} else if op.kind == 'r' {
		if err := f.FS.Rename(op.path, op.from); err != nil {
			return err
		}
		f.move(op.path, op.from)
	}
	if !op.back {
		return nil
	}
	g, err := f.FS.OpenFile(op.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = g.Write(op.lost)
		err = errors.Join(err, g.Close())
	}
	f.synced[op.path] = int64(len(op.lost))
	return err
}

// taking records in op the synced content of the file at op.path, if any, which
// the operation is about to take away.
func (f *FaultFS) taking(op nameOp) nameOp {
	n, ok := f.synced[op.path]
	if !ok {
		n = math.MaxInt64
	}
	lost, err := ReadFile(f.FS, op.path, n)
	op.lost, op.back = lost, err == nil
	return op
}

func (f *FaultFS) move(from, to string) {
	n, ok := f.synced[from]
	delete(f.synced, from)
	delete(f.synced, to)
	if ok {
		f.synced[to] = n
	}
}

func (f *FaultFS) logOp(op nameOp) {
	dir := filepath.Dir(op.path)
	f.pending[dir] = append(f.pending[dir], op)
}

// syncFault spends one sync from the budget, returning ErrInjectedSync
// once it is exhausted.
func (f *FaultFS) syncFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.syncsLeft == 0 {
		f.syncFaults++
		return ErrInjectedSync
	}
	if f.syncsLeft > 0 {
		f.syncsLeft--
	}
	return nil
}

// faultFile applies the shared FaultFS state to one open file.
type faultFile struct {
	File
	fs   *FaultFS
	name string
	cut  int // the FS's power cuts when the file was opened
}

// live reports ErrPowerCut for a handle opened before the last cut. Callers
// hold fs.mu.
func (f *faultFile) live() error {
	if f.cut != f.fs.cuts {
		return ErrPowerCut
	}
	return nil
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.hook("write", f.name)
	f.fs.mu.Lock()
	if err := f.live(); err != nil {
		f.fs.mu.Unlock()
		return 0, err
	}
	budget := f.fs.writeBudget
	if budget >= 0 && int64(len(p)) > budget {
		// Partial write: the torn-record shape a real power cut produces.
		f.fs.writeBudget = 0
		f.fs.writeFaults++
		f.fs.mu.Unlock()
		n, err := f.File.Write(p[:budget])
		if err != nil {
			return n, err
		}
		return n, ErrInjectedWrite
	}
	if budget >= 0 {
		f.fs.writeBudget = budget - int64(len(p))
	}
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	f.fs.hook("sync", f.name)
	err := f.fs.syncFault()
	if f.fs.locked(func() { err = errors.Join(err, f.live()) }); err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	pos, err := f.File.Seek(0, io.SeekCurrent)
	f.fs.locked(func() {
		if _, ok := f.fs.synced[f.name]; ok && err == nil {
			f.fs.synced[f.name] = pos
		}
	})
	return err
}

func (f *faultFile) Truncate(size int64) error {
	f.fs.hook("truncate", f.name)
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.live(); err != nil {
		return err
	} else if f.fs.failTruncates {
		return ErrInjectedTruncate
	}
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	if n, ok := f.fs.synced[f.name]; ok && n > size {
		f.fs.synced[f.name] = size
	}
	return nil
}
