// Package wal is the durability substrate of the online prediction
// engine: a segmented append-only journal of CRC-framed records plus
// versioned, checksummed snapshot files. Together they give the engine a
// crash-recovery contract — restore the latest valid snapshot, replay the
// journal suffix — whose result is bit-identical to an uninterrupted run.
//
// Journal layout: a directory of segment files named wal-<firstLSN>.seg.
// Each segment starts with a small header and holds a run of framed
// records with strictly increasing log sequence numbers (LSNs):
//
//	segment: magic "CWAL" | uint16 version | uint16 reserved
//	record:  uint32 payload length | uint32 CRC-32C over (lsn ‖ payload)
//	         | uint64 lsn | payload
//
// All integers are little-endian. The CRC makes torn or corrupted
// records detectable; on Open the final segment's tail is scanned and any
// incomplete record — the footprint of a crash mid-append — is truncated
// away. A corrupt record in the interior of the journal (not the tail) is
// a hard error: it means acknowledged data was lost, which recovery must
// surface rather than silently skip.
//
// Durability is governed by a SyncPolicy: SyncAlways fsyncs every append
// (every acknowledged record survives power loss), SyncInterval bounds
// the unsynced window, SyncNever leaves flushing to the OS. Retention is
// snapshot-driven: once a snapshot covers every record below an LSN,
// TruncateBefore deletes the segments wholly beneath it.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cordial/internal/obs"
)

// Framing and segment constants.
const (
	segMagic    = "CWAL"
	segVersion  = 1
	segHdrSize  = 8
	recHdrSize  = 16 // u32 len | u32 crc | u64 lsn
	segPrefix   = "wal-"
	segSuffix   = ".seg"
	segNameFmt  = segPrefix + "%016x" + segSuffix
	tmpSuffix   = ".tmp"
	firstRecLSN = 1
)

// MaxRecordBytes caps one record's payload; larger appends (and decoded
// lengths, which on corrupt input are attacker-controlled) are rejected.
const MaxRecordBytes = 16 << 20

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged record is on
	// stable storage before Append returns.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when the configured interval has elapsed since
	// the last sync (checked on each append), and on rotation and Close.
	SyncInterval
	// SyncNever leaves flushing to the operating system.
	SyncNever
)

// String names the policy (the -fsync flag values of cordial-serve).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses a policy name as accepted on the command line.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
	}
}

// Options configures a WAL. The zero value is serviceable: OSFS, 8 MiB
// segments, fsync on every append.
type Options struct {
	// FS is the filesystem; nil means OSFS.
	FS FS
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size. Zero means 8 MiB.
	SegmentBytes int64
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush interval under SyncInterval (default
	// 100ms).
	SyncInterval time.Duration
	// GroupCommit, under SyncAlways, lets concurrent appenders share one
	// fsync: the first appender to commit becomes the window leader,
	// briefly yields so racing appenders can stage their records, then
	// performs one buffered write and one fsync covering the whole
	// window. Every ack is still released only after the fsync that
	// covers it — append-before-ack is unchanged, only the fsync count
	// drops. Ignored under the other policies (which already batch).
	GroupCommit bool
	// Metrics, when non-nil, receives the journal's instruments
	// (cordial_wal_*): append/fsync counts, error counts and duration
	// histograms, plus live-segment and next-LSN gauges. The registry
	// should live no longer than the WAL: gauges read from this instance.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	return o
}

// ErrCorrupt reports an invalid record in the interior of the journal —
// data loss that recovery must surface, not skip.
var ErrCorrupt = errors.New("wal: corrupt record in journal interior")

// walMetrics is the journal's instrument set; the zero value (all nil) is
// fully operational because obs instruments are nil-safe — no branches on
// the append path.
type walMetrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	appendDur    *obs.Histogram
	fsyncs       *obs.Counter
	fsyncErrors  *obs.Counter
	fsyncDur     *obs.Histogram
}

// register creates the journal's instruments in reg and the scrape-time
// gauges over w.
func (m *walMetrics) register(reg *obs.Registry, w *WAL) {
	m.appends = reg.Counter("cordial_wal_appends_total",
		"Records appended to the journal since this process opened it.")
	m.appendErrors = reg.Counter("cordial_wal_append_errors_total",
		"Journal appends that failed (write or fsync error); the record was rejected.")
	m.appendDur = reg.Histogram("cordial_wal_append_seconds",
		"Journal append latency including any fsync the policy requires.", nil)
	m.fsyncs = reg.Counter("cordial_wal_fsyncs_total",
		"Journal fsync calls (per-append under always, batched under interval).")
	m.fsyncErrors = reg.Counter("cordial_wal_fsync_errors_total",
		"Journal fsync calls that returned an error.")
	m.fsyncDur = reg.Histogram("cordial_wal_fsync_seconds",
		"Journal fsync latency.", nil)
	reg.GaugeFunc("cordial_wal_segments",
		"Live journal segment files.", func() float64 { return float64(w.Segments()) })
	reg.GaugeFunc("cordial_wal_next_lsn",
		"LSN the next journal append will receive.", func() float64 { return float64(w.NextLSN()) })
}

// WAL is an open journal. Append is safe for concurrent use; Replay and
// TruncateBefore may run concurrently with Append.
type WAL struct {
	dir     string
	opts    Options
	metrics walMetrics

	mu       sync.Mutex
	f        File   // current segment
	size     int64  // current segment size, staged bytes included
	buf      []byte // staged frames not yet written to f
	window   *commitWindow
	nextLSN  uint64
	segments []uint64 // first LSN of each live segment, ascending
	lastSync time.Time
	closed   bool

	// What NextLSN, Appended and Segments report: written only under mu, but
	// atomics, so that the stats path — polled while a group-commit leader
	// holds mu across its fsync — never waits for it. publishedLSN is nextLSN
	// as of the last batch staged or rolled back (the per-record increments
	// inside a batch stay plain stores), segmentCount is len(segments).
	publishedLSN atomic.Uint64
	appended     atomic.Uint64
	segmentCount atomic.Int64
}

// setNextLSN and setSegments keep the published copies in step. Callers hold
// w.mu (or own w).
func (w *WAL) setNextLSN(lsn uint64) {
	w.nextLSN = lsn
	w.publishedLSN.Store(lsn)
}

func (w *WAL) setSegments(segs []uint64) {
	w.segments = segs
	w.segmentCount.Store(int64(len(segs)))
}

// commitWindow is one group-commit round: the leader flushes and fsyncs
// every record staged while it was open, then publishes the shared
// verdict by closing done.
type commitWindow struct {
	done chan struct{}
	err  error
}

// segName returns the filename for a segment starting at lsn.
func segName(lsn uint64) string { return fmt.Sprintf(segNameFmt, lsn) }

// parseSegName extracts the first LSN from a segment filename.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var lsn uint64
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	if _, err := fmt.Sscanf(hex, "%016x", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// Open opens (or creates) the journal in dir, repairing a torn tail: the
// final segment is scanned record by record and truncated after the last
// record whose frame and checksum are intact. A final segment too damaged
// to hold even a header (a crash during rotation) is removed entirely.
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts, lastSync: time.Now()}
	w.setNextLSN(firstRecLSN)
	if opts.Metrics != nil {
		w.metrics.register(opts.Metrics, w)
	}

	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	// Repair from the tail: drop unreadable trailing segments (crash
	// during rotation), truncate the torn tail of the last readable one.
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		lastLSN, validSize, err := scanSegment(opts.FS, filepath.Join(dir, segName(last)), last)
		if err != nil {
			return nil, err
		}
		if validSize < 0 {
			// Header missing or mangled: the segment holds nothing
			// recoverable. Remove it and retry with its predecessor.
			if err := opts.FS.Remove(filepath.Join(dir, segName(last))); err != nil {
				return nil, fmt.Errorf("wal: removing damaged segment: %w", err)
			}
			segs = segs[:len(segs)-1]
			continue
		}
		f, err := opts.FS.OpenFile(filepath.Join(dir, segName(last)), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening segment: %w", err)
		}
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seeking segment end: %w", err)
		}
		w.f, w.size = f, validSize
		w.setSegments(segs)
		if lastLSN > 0 {
			w.setNextLSN(lastLSN + 1)
		} else {
			w.setNextLSN(last)
		}
		return w, nil
	}
	// Fresh journal.
	if err := w.openSegment(firstRecLSN); err != nil {
		return nil, err
	}
	return w, nil
}

// listSegments returns the first-LSNs of the directory's segments,
// ascending. Stray temp files from an interrupted snapshot write are
// removed.
func listSegments(fs FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing dir: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = fs.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if lsn, ok := parseSegName(e.Name()); ok {
			segs = append(segs, lsn)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// scanSegment walks one segment validating every frame. It returns the
// highest valid LSN (0 if the segment holds no records) and the byte
// offset just past the last valid record — the truncation point for torn
// tails. validSize < 0 means the header itself is unreadable.
func scanSegment(fs FS, path string, firstLSN uint64) (lastLSN uint64, validSize int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening segment for scan: %w", err)
	}
	defer f.Close()
	var hdr [segHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, -1, nil // too short for a header: unrecoverable segment
	}
	if string(hdr[:4]) != segMagic || binary.LittleEndian.Uint16(hdr[4:6]) != segVersion {
		return 0, -1, nil
	}
	offset := int64(segHdrSize)
	for {
		lsn, payload, n, ok := readRecord(f)
		if !ok {
			return lastLSN, offset, nil
		}
		_ = payload
		lastLSN = lsn
		offset += n
	}
}

// readRecord reads one frame from r. ok is false on EOF, a short read, a
// CRC mismatch or an implausible length — every way a tail can be torn.
func readRecord(r io.Reader) (lsn uint64, payload []byte, size int64, ok bool) {
	var hdr [recHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, false
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	lsn = binary.LittleEndian.Uint64(hdr[8:16])
	if length > MaxRecordBytes {
		return 0, nil, 0, false
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, false
	}
	sum := crc32.Update(0, crcTable, hdr[8:16])
	sum = crc32.Update(sum, crcTable, payload)
	if sum != crc {
		return 0, nil, 0, false
	}
	return lsn, payload, int64(recHdrSize) + int64(length), true
}

// openSegment creates and syncs a fresh segment starting at lsn and makes
// it current.
func (w *WAL) openSegment(lsn uint64) error {
	path := filepath.Join(w.dir, segName(lsn))
	f, err := w.opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	var hdr [segHdrSize]byte
	copy(hdr[:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	w.f, w.size = f, segHdrSize
	w.setSegments(append(w.segments, lsn))
	return nil
}

// Append frames and writes one record, returning its LSN: AppendBatch of
// one record, so the frame bytes, the commit and the failure handling are
// the batch path's. Under SyncAlways the record is on stable storage when
// Append returns; a sync or write failure is returned to the caller and the
// record must be considered lost (the torn frame will be truncated on the
// next Open).
func (w *WAL) Append(payload []byte) (uint64, error) {
	return w.AppendBatch(payload, len(payload))
}

// AppendBatch journals a contiguous run of fixed-size records (the batch
// ingest path: one frame's worth of decoded events) under consecutive
// LSNs: record i of n gets first+i. The whole batch is staged, written
// with one buffered write, and — policy permitting — made durable by one
// fsync before AppendBatch returns, so acknowledging the batch after a
// nil return preserves append-before-ack for every record in it. An
// error means none of the batch's records may be considered durable.
func (w *WAL) AppendBatch(records []byte, recordSize int) (first uint64, err error) {
	if recordSize <= 0 || recordSize > MaxRecordBytes {
		return 0, fmt.Errorf("wal: invalid batch record size %d", recordSize)
	}
	if len(records)%recordSize != 0 {
		return 0, fmt.Errorf("wal: batch of %d bytes is not a whole number of %d-byte records", len(records), recordSize)
	}
	n := len(records) / recordSize
	if n == 0 {
		return 0, nil
	}
	t0 := time.Now()
	first, err = w.appendBatch(records, recordSize, n)
	w.metrics.appendDur.ObserveSince(t0)
	if err != nil {
		w.metrics.appendErrors.Add(uint64(n))
	} else {
		w.metrics.appends.Add(uint64(n))
	}
	return first, err
}

func (w *WAL) appendBatch(records []byte, recordSize, n int) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: append to closed journal")
	}
	first := w.nextLSN
	for i := 0; i < n; i++ {
		if _, err := w.stageLocked(records[i*recordSize : (i+1)*recordSize]); err != nil {
			w.setNextLSN(first)
			return 0, err
		}
	}
	w.publishedLSN.Store(w.nextLSN)
	if err := w.commitLocked(); err != nil {
		if w.nextLSN == first+uint64(n) {
			w.setNextLSN(first)
		}
		return 0, err
	}
	w.appended.Add(uint64(n))
	return first, nil
}

// stageLocked frames payload under the next LSN into the staging buffer,
// rotating segments first if the current one is full. Staged frames are
// invisible to readers until flushLocked writes them; every exit path
// that reads or seals the file flushes first. Callers hold w.mu.
func (w *WAL) stageLocked(payload []byte) (uint64, error) {
	if w.size >= w.opts.SegmentBytes && w.size > segHdrSize {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	lsn := w.nextLSN
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	crcOff := len(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0) // CRC patched below
	lsnOff := len(w.buf)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, lsn)
	w.buf = append(w.buf, payload...)
	sum := crc32.Update(0, crcTable, w.buf[lsnOff:lsnOff+8])
	sum = crc32.Update(sum, crcTable, payload)
	binary.LittleEndian.PutUint32(w.buf[crcOff:], sum)
	w.size += int64(recHdrSize + len(payload))
	w.nextLSN = lsn + 1
	return lsn, nil
}

// flushLocked writes every staged frame to the current segment in one
// write. On a write error the unwritten remainder is dropped — their
// appenders are told the append failed, and any torn bytes are truncated
// by the next Open. Callers hold w.mu.
func (w *WAL) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.Write(w.buf)
	if err != nil {
		w.size -= int64(len(w.buf) - n)
		w.buf = w.buf[:0]
		return fmt.Errorf("wal: appending records: %w", err)
	}
	w.buf = w.buf[:0]
	return nil
}

// commitLocked makes the staged frames durable per the sync policy.
// Callers hold w.mu; under group commit the lock is briefly released to
// gather a window (see commitWindowLocked) and re-held on return.
func (w *WAL) commitLocked() error {
	switch w.opts.Sync {
	case SyncAlways:
		if w.opts.GroupCommit {
			return w.commitWindowLocked()
		}
		if err := w.flushLocked(); err != nil {
			return err
		}
		if err := w.syncTimed(); err != nil {
			return fmt.Errorf("wal: syncing record: %w", err)
		}
		return nil
	case SyncInterval:
		if err := w.flushLocked(); err != nil {
			return err
		}
		if time.Since(w.lastSync) >= w.opts.SyncInterval {
			if err := w.syncTimed(); err != nil {
				return fmt.Errorf("wal: syncing record: %w", err)
			}
			w.lastSync = time.Now()
		}
		return nil
	default: // SyncNever: write through, let the OS flush
		return w.flushLocked()
	}
}

// commitWindowLocked is the SyncAlways group-commit protocol. The first
// committer becomes the window leader: it opens a window, yields the
// lock so concurrently arriving appenders can stage their records, then
// flushes and fsyncs everything staged and publishes the verdict.
// Later committers that find a window open are followers — their records
// were staged under the lock while the window was open, so the leader's
// flush and fsync necessarily cover them; they block until the window
// resolves and return its verdict. Either way, a nil return means the
// caller's records are on stable storage. Callers hold w.mu, which is
// released while waiting and re-held on return.
func (w *WAL) commitWindowLocked() error {
	if win := w.window; win != nil {
		w.mu.Unlock()
		<-win.done
		w.mu.Lock()
		return win.err
	}
	win := &commitWindow{done: make(chan struct{})}
	w.window = win
	w.mu.Unlock()
	runtime.Gosched() // give racing appenders a beat to join the window
	w.mu.Lock()
	w.window = nil
	err := w.flushLocked()
	if err == nil {
		if serr := w.syncTimed(); serr != nil {
			err = fmt.Errorf("wal: syncing record: %w", serr)
		}
	}
	win.err = err
	close(win.done)
	return err
}

// syncTimed fsyncs the current segment under the journal's fsync
// instruments. Callers hold w.mu.
func (w *WAL) syncTimed() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.metrics.fsyncDur.ObserveSince(t0)
	w.metrics.fsyncs.Inc()
	if err != nil {
		w.metrics.fsyncErrors.Inc()
	}
	return err
}

// rotateLocked seals the current segment (staged frames flushed first —
// they carry LSNs below the new segment's first) and opens the next.
func (w *WAL) rotateLocked() error {
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := w.syncTimed(); err != nil {
		return fmt.Errorf("wal: syncing sealed segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	return w.openSegment(w.nextLSN)
}

// Sync flushes the current segment (staged frames included) to stable
// storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.f == nil {
		return nil
	}
	if err := w.flushLocked(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := w.syncTimed(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.lastSync = time.Now()
	return nil
}

// NextLSN returns the LSN the next Append will receive.
func (w *WAL) NextLSN() uint64 { return w.publishedLSN.Load() }

// Appended returns the number of records appended since Open.
func (w *WAL) Appended() uint64 { return w.appended.Load() }

// Segments returns the number of live segment files.
func (w *WAL) Segments() int { return int(w.segmentCount.Load()) }

// Replay calls fn for every record in the journal in LSN order. A record
// that fails validation is ErrCorrupt: Open has already truncated the
// torn tail, so nothing invalid can legitimately remain. fn's payload is
// only valid for the duration of the call.
func (w *WAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	// Replay reads the segment files, so records still sitting in the
	// staging buffer must be written out first or the tail would be
	// invisible (ExportRange — live cluster handoff — rides on this too).
	if w.f != nil && !w.closed {
		if err := w.flushLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	segs := append([]uint64(nil), w.segments...)
	valid := w.nextLSN
	w.mu.Unlock()
	for _, first := range segs {
		path := filepath.Join(w.dir, segName(first))
		f, err := w.opts.FS.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("wal: opening segment for replay: %w", err)
		}
		err = replaySegment(f, valid, fn)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySegment streams one segment's records through fn. Records at or
// past the valid horizon (appends racing the replay) are skipped.
func replaySegment(f File, horizon uint64, fn func(lsn uint64, payload []byte) error) error {
	var hdr [segHdrSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("wal: %w: segment header unreadable", ErrCorrupt)
	}
	if string(hdr[:4]) != segMagic || binary.LittleEndian.Uint16(hdr[4:6]) != segVersion {
		return fmt.Errorf("wal: %w: bad segment magic/version", ErrCorrupt)
	}
	for {
		lsn, payload, _, ok := readRecord(f)
		if !ok {
			// Distinguish clean EOF from mid-segment corruption: try to
			// read one more byte.
			var b [1]byte
			if _, err := f.Read(b[:]); err == io.EOF {
				return nil
			}
			return ErrCorrupt
		}
		if lsn >= horizon {
			return nil
		}
		if err := fn(lsn, payload); err != nil {
			return err
		}
	}
}

// TruncateBefore deletes every segment whose records all have LSN < lsn
// (the retention step after a snapshot covering those records). The
// current segment is never deleted.
func (w *WAL) TruncateBefore(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var kept []uint64
	for i, first := range w.segments {
		last := i == len(w.segments)-1
		// Segment i's records are all below the next segment's first LSN.
		if !last && w.segments[i+1] <= lsn {
			if err := w.opts.FS.Remove(filepath.Join(w.dir, segName(first))); err != nil {
				return fmt.Errorf("wal: removing retired segment: %w", err)
			}
			continue
		}
		kept = append(kept, first)
	}
	w.setSegments(kept)
	return nil
}

// Close syncs and closes the journal.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	if err := w.flushLocked(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: final flush: %w", err)
	}
	if err := w.syncTimed(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: final sync: %w", err)
	}
	return w.f.Close()
}
