package stream

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cordial/internal/obs"
)

// Dead-letter rotation. The quarantine file preserves evidence, but a
// sustained poison stream would grow it without bound: every poisoned event
// appends a line forever. The trail is capped two ways — the active file
// rotates once it reaches MaxFileBytes, and rotated files are pruned by count
// and by age — so the freshest evidence survives and the disk does not fill.

// DeadLetterRotation caps the on-disk quarantine trail. The zero value
// applies the defaults below; rotation is always on when a dead-letter
// path is configured.
type DeadLetterRotation struct {
	// MaxFileBytes rotates the active file once a write would push it past
	// this size. Zero means DefaultDeadLetterMaxFileBytes.
	MaxFileBytes int64
	// MaxFiles bounds how many rotated files are kept (the active file is
	// not counted). Zero means DefaultDeadLetterMaxFiles; negative keeps
	// none.
	MaxFiles int
	// MaxAge additionally drops rotated files whose rotation stamp is
	// older than this. Zero means no age pruning.
	MaxAge time.Duration
}

// Defaults: 64 MiB × (1 active + 4 rotated) caps the trail at 320 MiB.
const (
	DefaultDeadLetterMaxFileBytes = 64 << 20
	DefaultDeadLetterMaxFiles     = 4
)

func (r DeadLetterRotation) withDefaults() DeadLetterRotation {
	if r.MaxFileBytes <= 0 {
		r.MaxFileBytes = DefaultDeadLetterMaxFileBytes
	}
	if r.MaxFiles == 0 {
		r.MaxFiles = DefaultDeadLetterMaxFiles
	}
	return r
}

// deadLetterLog is the engine's rotating dead-letter writer. Write errors
// are swallowed (losing a dead-letter line must never take down
// processing), but size accounting stays exact so the cap holds even
// under partial writes.
type deadLetterLog struct {
	mu    sync.Mutex
	path  string
	rot   DeadLetterRotation
	clock obs.Clock // rotation stamps and age pruning
	f     *os.File
	size  int64
	// newest is the highest rotation stamp prune has seen. The next rotation
	// stamps above it even if the clock stands still or steps back.
	newest int64
}

// openDeadLetterLog opens (appending) the active dead-letter file and
// prunes any rotated files left over from earlier runs.
func openDeadLetterLog(path string, rot DeadLetterRotation, clock obs.Clock) (*deadLetterLog, error) {
	rot = rot.withDefaults()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stream: opening dead-letter file: %w", err)
	}
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	l := &deadLetterLog{path: path, rot: rot, clock: clock, f: f, size: size}
	l.prune()
	return l, nil
}

// write appends one line (newline added here), rotating first when the
// line would push the active file over the cap.
func (l *deadLetterLog) write(line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	if l.size > 0 && l.size+int64(len(line))+1 > l.rot.MaxFileBytes {
		l.rotateLocked()
	}
	n, _ := l.f.Write(append(line, '\n'))
	l.size += int64(n)
}

// rotateLocked renames the active file to path.<unix-nanos> and opens a
// fresh one. A rename or reopen failure falls back to truncating in
// place — the cap must hold even when the rename path is broken.
func (l *deadLetterLog) rotateLocked() {
	stamp := max(l.clock.Now().UnixNano(), l.newest+1)
	l.f.Close()
	rotated := fmt.Sprintf("%s.%d", l.path, stamp)
	renameErr := os.Rename(l.path, rotated)
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return
	}
	l.f = f
	if renameErr != nil {
		// The old contents are still behind the reopened file: truncate so
		// the size cap is enforced regardless.
		l.f.Truncate(0)
	}
	l.size = 0
	l.prune()
}

// prune removes rotated files beyond MaxFiles (oldest first) and, when
// MaxAge is set, rotated files stamped older than now-MaxAge. It records the
// newest stamp it saw.
func (l *deadLetterLog) prune() {
	matches, err := filepath.Glob(l.path + ".*")
	if err != nil {
		return
	}
	type rotated struct {
		path  string
		stamp int64
	}
	var files []rotated
	for _, m := range matches {
		suffix := strings.TrimPrefix(m, l.path+".")
		stamp, err := strconv.ParseInt(suffix, 10, 64)
		if err != nil {
			continue // not one of ours
		}
		files = append(files, rotated{path: m, stamp: stamp})
		l.newest = max(l.newest, stamp)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].stamp < files[j].stamp })
	keep := l.rot.MaxFiles
	if keep < 0 {
		keep = 0
	}
	cutoff := int64(-1)
	if l.rot.MaxAge > 0 {
		cutoff = l.clock.Now().Add(-l.rot.MaxAge).UnixNano()
	}
	for i, f := range files {
		if len(files)-i > keep || f.stamp < cutoff {
			os.Remove(f.path)
		}
	}
}

// close closes the active file.
func (l *deadLetterLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
