package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Publish atomically replaces the file at path with the concatenation of
// chunks: it writes a temp file beside path, fsyncs and closes it, renames
// it over path and fsyncs the directory. A crash leaves either the old file
// or the whole new one under path, and once Publish returns the new file
// survives power loss by name. On any error the temp file is removed. It is
// the one writer of snapshots, model artefacts and the registry's active
// pointer.
func Publish(fs FS, path string, chunks ...[]byte) (err error) {
	fs = orOS(fs)
	dir := filepath.Dir(path)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	tmp := path + tmpSuffix
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	defer func() {
		if err != nil {
			_ = fs.Remove(tmp)
		}
	}()
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return fmt.Errorf("wal: writing %s: %w", tmp, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: publishing %s: %w", path, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing directory of %s: %w", path, err)
	}
	return nil
}

// ReadFile reads the file at path, at most limit bytes of it: the read side
// of a published file, bounded so that a corrupt one cannot exhaust memory.
func ReadFile(fs FS, path string, limit int64) ([]byte, error) {
	f, err := orOS(fs).OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(io.LimitReader(f, limit))
}

// numberedName names the file prefix + n as 16 hex digits + suffix.
func numberedName(prefix string, n uint64, suffix string) string {
	return fmt.Sprintf("%s%016x%s", prefix, n, suffix)
}

// Numbered lists the numbers of dir's files named prefix + 16 hex digits +
// suffix — journal segments, snapshots, model artefacts — in ascending
// order. A missing directory lists as empty. Validity is the reader's
// business, not the lister's.
func Numbered(fs FS, dir, prefix, suffix string) ([]uint64, error) {
	entries, err := orOS(fs).ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var out []uint64
	for _, e := range entries {
		hex, ok := strings.CutPrefix(e.Name(), prefix)
		if hex, ok2 := strings.CutSuffix(hex, suffix); ok && ok2 && len(hex) == 16 {
			if n, err := strconv.ParseUint(hex, 16, 64); err == nil {
				out = append(out, n)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}
