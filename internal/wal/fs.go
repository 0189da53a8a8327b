package wal

import (
	"errors"
	"io"
	"os"
	"sync"
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
	// ErrInjectedOpen is returned by OpenFile when open faults are armed.
	ErrInjectedOpen = errors.New("wal: injected open fault")
)

// FaultFS wraps another FS and injects failures: partial writes after a
// byte budget, fsync errors after a sync count (file and directory syncs
// alike), and open errors. It is the harness behind the durability
// fault-injection tests — a crash-safe WAL must turn every one of these
// into a clean error, never a panic and never a corrupted acknowledged
// record.
//
// All knobs are safe for concurrent use and may be re-armed mid-test.
type FaultFS struct {
	FS // the wrapped filesystem

	mu          sync.Mutex
	writeBudget int64 // bytes writable before ErrInjectedWrite; <0 = unlimited
	syncsLeft   int   // successful syncs before ErrInjectedSync; <0 = unlimited
	failOpens   bool
	writeFaults int
	syncFaults  int
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{FS: inner, writeBudget: -1, syncsLeft: -1}
}

// LimitWriteBytes arms the write fault: after n more bytes are written
// (across all files), the write that crosses the budget is cut short and
// returns ErrInjectedWrite. n < 0 disarms.
func (f *FaultFS) LimitWriteBytes(n int64) {
	f.mu.Lock()
	f.writeBudget = n
	f.mu.Unlock()
}

// FailSyncAfter arms the sync fault: the next n Sync or SyncDir calls
// succeed, every later one returns ErrInjectedSync. n < 0 disarms.
func (f *FaultFS) FailSyncAfter(n int) {
	f.mu.Lock()
	f.syncsLeft = n
	f.mu.Unlock()
}

// FailOpens makes every subsequent OpenFile return ErrInjectedOpen.
func (f *FaultFS) FailOpens(fail bool) {
	f.mu.Lock()
	f.failOpens = fail
	f.mu.Unlock()
}

// Faults reports how many write and sync faults have fired.
func (f *FaultFS) Faults() (writes, syncs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeFaults, f.syncFaults
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f.mu.Lock()
	fail := f.failOpens
	f.mu.Unlock()
	if fail {
		return nil, ErrInjectedOpen
	}
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.syncFault(); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
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
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
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
	if err := f.fs.syncFault(); err != nil {
		return err
	}
	return f.File.Sync()
}
