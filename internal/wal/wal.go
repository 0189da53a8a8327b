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
// All integers are little-endian. One segment reader walks these frames,
// under Open's tail repair, Replay and ReadJournal, and applies one rule
// to a bad frame. In the journal's last segment the first bad frame starts
// the torn tail — the footprint of a crash mid-append — which Open
// truncates away and ReadJournal stops before. In a sealed segment a complete
// frame that fails its CRC is ErrCorrupt: acknowledged data was lost, which
// recovery must surface rather than silently skip.
//
// Durability is governed by a SyncPolicy: SyncAlways fsyncs before an
// append returns (every acknowledged record survives power loss), SyncNever
// leaves flushing to the OS. Every other file — snapshots, and the model
// registry's artefacts and active pointer — is written by Publish (temp
// file, fsync, rename, directory fsync) and listed by Numbered. Retention
// is snapshot-driven: once a snapshot covers every record below an LSN,
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
	"slices"
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
	tmpSuffix   = ".tmp"
	firstRecLSN = 1

	// blockBytes is the segment reader's read size.
	blockBytes = 64 << 10
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
	// SyncNever leaves flushing to the operating system.
	SyncNever
)

// String names the policy (the -fsync flag values of cordial-serve).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
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
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always or never)", s)
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
	// GroupCommit, under SyncAlways, lets concurrent appenders share one
	// fsync: the first appender to commit becomes the window leader,
	// briefly yields so racing appenders can stage their records, then
	// performs one buffered write and one fsync covering the whole
	// window. Every ack is still released only after the fsync that
	// covers it — append-before-ack is unchanged, only the fsync count
	// drops. Ignored under SyncNever.
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
	return o
}

// ErrCorrupt reports an invalid record in a sealed segment — data loss that
// recovery must surface, not skip.
var ErrCorrupt = errors.New("wal: corrupt record in journal interior")

// errStop ends a segment walk early without error (Replay at its horizon).
var errStop = errors.New("wal: walk stopped")

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
		"Journal fsync calls (per commit under always, plus rotation and close).")
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
	closed   bool
	// failed, once set, refuses every append: a failed write's bytes could
	// not be cut back off the segment, so a later frame would land behind a
	// torn one and be lost at the next Open.
	failed  error
	written uint64 // one past the last LSN written to a segment: a failed append rolls nextLSN back no further

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
func segName(lsn uint64) string { return numberedName(segPrefix, lsn, segSuffix) }

// Open opens (or creates) the journal in dir, repairing a torn tail: the
// final segment is read frame by frame and truncated after the last record
// whose frame and checksum are intact. A final segment too damaged to hold
// even a header (a crash during rotation) is removed entirely, and so are
// the temp files of interrupted snapshot writes.
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	w.setNextLSN(firstRecLSN)
	if opts.Metrics != nil {
		w.metrics.register(opts.Metrics, w)
	}
	temps, _ := Numbered(opts.FS, dir, snapPrefix, snapSuffix+tmpSuffix) // a listing error surfaces below
	for _, seq := range temps {
		_ = opts.FS.Remove(filepath.Join(dir, numberedName(snapPrefix, seq, snapSuffix+tmpSuffix)))
	}
	segs, err := Numbered(opts.FS, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	r := segmentReader{fs: opts.FS, dir: dir}
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		next := last
		end, err := r.walk(last, true, func(lsn uint64, _ []byte) error {
			next = lsn + 1
			return nil
		})
		if err != nil {
			return nil, err
		}
		if end < 0 {
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
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: seeking segment end: %w", err)
		}
		w.f, w.size = f, end
		w.setSegments(segs)
		w.setNextLSN(next)
		return w, nil
	}
	// Fresh journal.
	if err := w.openSegment(firstRecLSN); err != nil {
		return nil, err
	}
	return w, nil
}

// Record is one journal record out of its framing, as ReadJournal returns
// it. Handoff bundles carry these across nodes as JSON; the LSN is the
// SOURCE journal's, an opaque watermark to a receiver, never one of its own.
type Record struct {
	// LSN is the record's position in the source journal.
	LSN uint64 `json:"lsn"`
	// Payload is the record body.
	Payload []byte `json:"payload"`
}

// ReadJournal returns every intact record of the journal in dir, in LSN
// order, and writes nothing: a torn tail is read up to, not truncated, and
// no file is created or removed — an empty or missing directory reads as
// no records. It is the read of a journal no process has open, such as a
// dead node's at cluster takeover. Payloads are copies, safe to retain.
func ReadJournal(dir string) ([]Record, error) {
	segs, err := Numbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil {
		return nil, err
	}
	var out []Record
	r := segmentReader{fs: OSFS, dir: dir}
	for i, first := range segs {
		if _, err := r.walk(first, i == len(segs)-1, func(lsn uint64, payload []byte) error {
			out = append(out, Record{LSN: lsn, Payload: append([]byte(nil), payload...)})
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// segmentReader is the journal's one reader of segment files. It reads a
// segment in blocks into one buffer, reused across the segments of one read
// and dropped with the reader, and yields payloads as sub-slices of it.
type segmentReader struct {
	fs  FS
	dir string
	buf []byte
}

// walk reads the segment starting at first; see frames.
func (r *segmentReader) walk(first uint64, tail bool, fn func(lsn uint64, payload []byte) error) (int64, error) {
	f, err := r.fs.OpenFile(filepath.Join(r.dir, segName(first)), os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return 0, fmt.Errorf("wal: sizing segment: %w", err)
	}
	return r.frames(f, size, tail, fn)
}

// frames reads the size-byte segment image in src and calls fn with each
// record in order; the payload is valid only during the call. It returns
// the offset just past the last record fn took — the end of the intact
// records — or -1 for a tail segment whose header is torn.
//
// The torn-vs-corrupt rule: in the journal's last segment (tail) the first
// bad frame — cut short by the segment's end, over-long, or failing its CRC
// — starts the torn tail, and the walk ends before it without error. In a
// sealed segment a bad header, an over-long frame or a complete frame that
// fails its CRC is ErrCorrupt; a frame cut short by the segment's end ends
// the walk, since only a failed write of an older journal leaves one there.
func (r *segmentReader) frames(src io.Reader, size int64, tail bool, fn func(lsn uint64, payload []byte) error) (int64, error) {
	var hdr [segHdrSize]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil || size < segHdrSize ||
		string(hdr[:4]) != segMagic || binary.LittleEndian.Uint16(hdr[4:6]) != segVersion {
		if tail {
			return -1, nil
		}
		return 0, fmt.Errorf("%w: segment header unreadable", ErrCorrupt)
	}
	if want := int(min(blockBytes, size-segHdrSize)); len(r.buf) < want {
		r.buf = make([]byte, want)
	}
	// off is the segment offset of buf[lo]; buf[lo:hi] is read and not yet
	// consumed; unread bytes of the segment follow it.
	off, unread := int64(segHdrSize), size-segHdrSize
	lo, hi := 0, 0
	fill := func(n int) error { // buffer n bytes at buf[lo:]; n <= hi-lo+unread
		if hi-lo >= n {
			return nil
		}
		hi = copy(r.buf, r.buf[lo:hi])
		lo = 0
		if len(r.buf) < n {
			grown := make([]byte, n)
			copy(grown, r.buf[:hi])
			r.buf = grown
		}
		m, err := io.ReadAtLeast(src, r.buf[hi:hi+int(min(int64(len(r.buf)-hi), unread))], n-hi)
		hi += m
		unread -= int64(m)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return errStop // the file shrank under a Replay: a failed append being cut off
		}
		if err != nil {
			return fmt.Errorf("wal: reading segment: %w", err)
		}
		return nil
	}
	for off < size {
		if size-off < recHdrSize {
			return off, nil // a frame header cut short
		}
		if err := fill(recHdrSize); err != nil {
			return off, err
		}
		length := binary.LittleEndian.Uint32(r.buf[lo:])
		n := recHdrSize + int(min(length, MaxRecordBytes+1))
		if length > MaxRecordBytes || int64(n) > size-off {
			if tail || length <= MaxRecordBytes {
				return off, nil // the torn tail, or a frame cut short
			}
			return off, fmt.Errorf("%w: record length %d out of range", ErrCorrupt, length)
		}
		if err := fill(n); err != nil {
			return off, err
		}
		frame := r.buf[lo : lo+n]
		sum := crc32.Update(0, crcTable, frame[8:recHdrSize])
		if crc32.Update(sum, crcTable, frame[recHdrSize:]) != binary.LittleEndian.Uint32(frame[4:8]) {
			if tail {
				return off, nil
			}
			return off, fmt.Errorf("%w: record checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if err := fn(binary.LittleEndian.Uint64(frame[8:16]), frame[recHdrSize:]); err != nil {
			return off, err
		}
		lo += n
		off += int64(n)
	}
	return off, nil
}

// openSegment creates a fresh segment starting at lsn, syncs it and its
// directory entry, and makes it current: a record acknowledged in it must
// not vanish with the file's name. On failure the file is removed again, so
// a later rotation can retry.
func (w *WAL) openSegment(lsn uint64) (err error) {
	path := filepath.Join(w.dir, segName(lsn))
	f, err := w.opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			_ = w.opts.FS.Remove(path)
		}
	}()
	hdr := binary.LittleEndian.AppendUint16([]byte(segMagic), segVersion)
	if _, err := f.Write(append(hdr, 0, 0)); err != nil {
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	if err := w.opts.FS.SyncDir(w.dir); err != nil {
		return fmt.Errorf("wal: syncing journal directory: %w", err)
	}
	w.f, w.size = f, segHdrSize
	w.setSegments(append(w.segments, lsn))
	return nil
}

// Append frames and writes one record, returning its LSN: AppendBatch of
// one record, so the frame bytes, the commit and the failure handling are
// the batch path's. Under SyncAlways the record is on stable storage when
// Append returns; a sync or write failure is returned to the caller and the
// record must be considered lost.
func (w *WAL) Append(payload []byte) (uint64, error) {
	return w.AppendBatch(payload, len(payload))
}

// AppendBatch journals a contiguous run of fixed-size records (the batch
// ingest path: one frame's worth of decoded events) under consecutive
// LSNs: record i of n gets first+i. The whole batch is staged, written
// with one buffered write, and — policy permitting — made durable by one
// fsync before AppendBatch returns, so acknowledging the batch after a
// nil return preserves append-before-ack for every record in it. An
// error means none of the batch's records may be considered durable, though
// those written before it may replay; their LSNs are never handed out again.
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
	if w.failed != nil {
		return 0, w.failed
	}
	first := w.nextLSN
	for i := 0; i < n; i++ {
		if _, err := w.stageLocked(records[i*recordSize : (i+1)*recordSize]); err != nil {
			w.setNextLSN(max(first, w.written))
			return 0, err
		}
	}
	w.publishedLSN.Store(w.nextLSN)
	if err := w.commitLocked(); err != nil {
		if w.nextLSN == first+uint64(n) {
			w.setNextLSN(max(first, w.written))
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
// write. On a write error the staged frames are dropped — their appenders
// are told the append failed, and so is every follower of an open commit
// window — and the segment is cut back to its size before the write, so a
// later append never lands behind a torn frame. If the cut fails too, the
// journal refuses every later append. Callers hold w.mu.
func (w *WAL) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	if err == nil {
		w.buf = w.buf[:0]
		w.written = w.nextLSN
		return nil
	}
	w.size -= int64(len(w.buf))
	w.buf = w.buf[:0]
	err = fmt.Errorf("wal: appending records: %w", err)
	if w.window != nil {
		w.window.err = err
	}
	if terr := w.f.Truncate(w.size); terr != nil {
		w.failed = fmt.Errorf("wal: journal refuses appends: cutting off a failed write: %w", terr)
	} else if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.failed = fmt.Errorf("wal: journal refuses appends: seeking past a failed write: %w", serr)
	}
	return err
}

// commitLocked makes the staged frames durable per the sync policy.
// Callers hold w.mu; under group commit the lock is briefly released to
// gather a window (see commitWindowLocked) and re-held on return.
func (w *WAL) commitLocked() error {
	if w.opts.Sync == SyncNever {
		return w.flushLocked() // write through, let the OS flush
	}
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
	if win.err == nil { // a flush inside the window may have failed it already
		win.err = err
	}
	close(win.done)
	return win.err
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
	// The sealed segment stays current until its successor exists, so a
	// failed rotation leaves a journal that can retry it.
	sealed := w.f
	if err := w.openSegment(w.nextLSN); err != nil {
		return err
	}
	_ = sealed.Close() // its frames are synced: a close error loses nothing
	return nil
}

// NextLSN returns the LSN the next Append will receive.
func (w *WAL) NextLSN() uint64 { return w.publishedLSN.Load() }

// Appended returns the number of records appended since Open.
func (w *WAL) Appended() uint64 { return w.appended.Load() }

// Segments returns the number of live segment files.
func (w *WAL) Segments() int { return int(w.segmentCount.Load()) }

// Replay calls fn for every record in the journal in LSN order, up to the
// last record appended when it was called. Open has already cut off the
// torn tail, so every segment is held to the sealed-segment rule: a record
// that fails validation is ErrCorrupt. fn's payload is only valid for the
// duration of the call.
func (w *WAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	w.mu.Lock()
	// Replay reads the segment files, so records still sitting in the
	// staging buffer must be written out first or the tail would be
	// invisible.
	if w.f != nil && !w.closed {
		if err := w.flushLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	segs := slices.Clone(w.segments)
	horizon := w.nextLSN
	w.mu.Unlock()
	r := segmentReader{fs: w.opts.FS, dir: w.dir}
	for _, first := range segs {
		_, err := r.walk(first, false, func(lsn uint64, payload []byte) error {
			if lsn >= horizon {
				return errStop // appends racing the replay
			}
			return fn(lsn, payload)
		})
		if err == errStop {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
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
