package mcelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// The binary event format ("CBF2" — cordial binary frames, version 2).
//
// One fixed 19-byte record is the only binary layout of an Event. Log
// files (Log.WriteWire / ReadLog), the ingest wire (POST /v1/events.bin)
// and the engine's journal payloads all carry it, and Record.Append /
// ParseRecord are the only code that lays it out or reads it. Files
// and the wire frame it identically — a log file is a valid request body —
// into length-prefixed, CRC-checked batches, so a reader decodes
// incrementally with zero allocations and rejects a corrupt or truncated
// frame before acting on any of its events:
//
//	stream: magic "CBF2"
//	frame:  uint32 payload length | uint32 CRC-32C over payload | payload
//	record: int64 unix-nanos | uint64 packed addr | uint8 class | uint16 error bits   (×N)
//
// All integers are little-endian. A frame's payload is a whole number of
// records (at least one, at most MaxWireFrameBytes total). Clean EOF on a
// frame boundary ends the stream; EOF inside a frame is truncation and is
// reported as an error. The CRC is the Castagnoli polynomial (hardware-
// accelerated on amd64/arm64), the same one the WAL uses — a frame's
// payload bytes are exactly what the durable engine journals per event.
//
// Decoders also accept the previous "CBF1" stream, whose 17-byte records
// lack the error-bit field; its events decode with Bits zero. That reader
// stays because CBF1 is a documented wire input from collectors this
// repository does not build. Encoders always emit CBF2.
const (
	wireMagic   = "CBF2"
	wireMagicV1 = "CBF1"

	wireFrameHdrSize = 8 // u32 payload length | u32 crc32c(payload)

	// WireRecordSize is the fixed per-event record size: files, wire frames
	// and the engine's WAL event records all hold this record.
	WireRecordSize = 19

	// wireRecordSizeV1 is the record size of the legacy CBF1 stream.
	wireRecordSizeV1 = 17
)

// MaxWireFrameBytes caps one frame's payload. Decoded lengths are
// attacker-controlled on corrupt input, so the decoder rejects anything
// larger before allocating; encoders flush before reaching it.
const MaxWireFrameBytes = 1 << 20

// wireCRCTable is the Castagnoli polynomial table for frame checksums.
var wireCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ErrWireFrame reports a malformed binary stream: bad magic, an
// implausible length prefix, a checksum mismatch, or truncation inside a
// frame. The stream cannot be trusted past this point.
var ErrWireFrame = errors.New("mcelog: malformed binary frame")

// Record is one record's fields as the record lays them out: the form an
// event keeps where nothing needs it unpacked (the stream engine queues,
// journals and replays records). RecordOf packs an event into one; Event
// unpacks it again.
type Record struct {
	UnixNano int64
	Packed   uint64 // the address, packed under its profile's layout
	Class    uint8  // the ecc.Class byte
	Bits     uint16 // the ErrBits
}

// RecordOf is the record of an event, its address packed under p.
func RecordOf(p *hbm.Profile, ev Event) Record {
	return Record{UnixNano: ev.Time.UnixNano(), Packed: p.Layout.Pack(ev.Addr), Class: byte(ev.Class), Bits: uint16(ev.Bits)}
}

// Append appends the record's WireRecordSize bytes to dst.
func (r Record) Append(dst []byte) []byte {
	var rec [WireRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], uint64(r.UnixNano))
	binary.LittleEndian.PutUint64(rec[8:16], r.Packed)
	rec[16] = r.Class
	binary.LittleEndian.PutUint16(rec[17:19], r.Bits)
	return append(dst, rec[:]...)
}

// ParseRecord reads one fixed-size record's fields, checking nothing.
func ParseRecord(rec []byte) Record {
	_ = rec[WireRecordSize-1]
	return Record{
		UnixNano: int64(binary.LittleEndian.Uint64(rec[0:8])),
		Packed:   binary.LittleEndian.Uint64(rec[8:16]),
		Class:    rec[16],
		Bits:     binary.LittleEndian.Uint16(rec[17:19]),
	}
}

// Event unpacks the record under p: its time is the instant in UTC with no
// monotonic reading.
func (r Record) Event(p *hbm.Profile) Event {
	return Event{
		Time:  time.Unix(0, r.UnixNano).UTC(),
		Addr:  p.Layout.Unpack(r.Packed),
		Class: ecc.Class(r.Class),
		Bits:  ErrBits(r.Bits),
	}
}

// AppendWireRecord appends one event's fixed-size record, packed under hbm2e,
// to dst. Bench-only until ROADMAP item 15.
func AppendWireRecord(dst []byte, ev Event) []byte { return RecordOf(hbm.HBM2E, ev).Append(dst) }

// ParseRecordChecked is ParseRecord for bytes nobody has validated — a log
// file, a journal, a peer's handoff suffix — where no Event.Validate follows
// the decode. It refuses a record of the wrong length, a class byte that is
// not a loggable class, and a packed address with bits outside p's layout
// (Unpack would silently drop them and alias the record onto a different,
// valid-looking bank).
func ParseRecordChecked(p *hbm.Profile, rec []byte) (Record, error) {
	if len(rec) != WireRecordSize {
		return Record{}, fmt.Errorf("mcelog: event record of %d bytes, want %d", len(rec), WireRecordSize)
	}
	if c := ecc.Class(rec[16]); c != ecc.ClassCE && c != ecc.ClassUEO && c != ecc.ClassUER {
		return Record{}, fmt.Errorf("mcelog: event record has invalid class byte %d", rec[16])
	}
	r := ParseRecord(rec)
	if err := p.Layout.CheckPacked(r.Packed); err != nil {
		return Record{}, fmt.Errorf("mcelog: event record: %w", err)
	}
	return r, nil
}

// WireFrame is a decoded, checksum-verified view over one frame's payload.
// It borrows the decoder's buffer: valid only until the next call to Next
// or Reset.
type WireFrame struct {
	payload []byte
	recSize int
	prof    *hbm.Profile
}

// Len returns the number of events in the frame.
func (f WireFrame) Len() int { return len(f.payload) / f.recSize }

// Event decodes record i. It allocates nothing.
func (f WireFrame) Event(i int) Event {
	rec := f.payload[i*f.recSize : (i+1)*f.recSize]
	if f.recSize == wireRecordSizeV1 {
		return decodeWireRecordV1(f.prof, rec)
	}
	return ParseRecord(rec).Event(f.prof)
}

// decodeWireRecordV1 decodes a legacy 17-byte CBF1 record: the CBF2 layout
// without its last field, so it is widened for the one decoder and reads
// back with Bits zero. Not inlined: in Event's frame its scratch costs the
// CBF2 path a quarter of its speed (BenchmarkWireFrameDecode, 115 → 145 ns).
//
//go:noinline
func decodeWireRecordV1(p *hbm.Profile, rec []byte) Event {
	var wide [WireRecordSize]byte
	copy(wide[:], rec)
	return ParseRecord(wide[:]).Event(p)
}

// EventChecked decodes record i with ParseRecordChecked's checks: the
// record decoder of BodyReader, whose events no Event.Validate may follow.
func (f WireFrame) EventChecked(i int) (Event, error) {
	var wide [WireRecordSize]byte // a CBF1 record widens to CBF2, Bits zero
	copy(wide[:], f.payload[i*f.recSize:(i+1)*f.recSize])
	r, err := ParseRecordChecked(f.prof, wide[:])
	return r.Event(f.prof), err
}

// FrameDecoder reads a CBF2 (or legacy CBF1) stream frame by frame, its
// records packed under prof. BodyReader holds one and reuses it across streams
// via Reset — the payload buffer is retained, so steady-state decoding
// allocates nothing (pinned by TestWireDecodeZeroAllocs).
type FrameDecoder struct {
	r       io.Reader
	buf     []byte
	hdr     [wireFrameHdrSize]byte
	opened  bool // magic consumed
	recSize int  // per-record size implied by the stream's magic
	prof    *hbm.Profile
}

// NewFrameDecoder returns a decoder over r of records packed under hbm2e.
// Bench-only until ROADMAP item 15: everything else decodes through
// BodyReader, under the profile it is reset with.
func NewFrameDecoder(r io.Reader) *FrameDecoder { return &FrameDecoder{r: r, prof: hbm.HBM2E} }

// Reset points the decoder at a new stream, keeping its buffers.
func (d *FrameDecoder) Reset(r io.Reader) {
	d.r = r
	d.opened = false
}

// Next returns the next frame. io.EOF means the stream ended cleanly on a
// frame boundary (an entirely empty stream — not even a magic — is also a
// clean end, so a zero-length HTTP body decodes as zero events). Any
// other error wraps ErrWireFrame and poisons the stream.
func (d *FrameDecoder) Next() (WireFrame, error) {
	if !d.opened {
		if _, err := io.ReadFull(d.r, d.hdr[:4]); err != nil {
			if err == io.EOF {
				return WireFrame{}, io.EOF
			}
			return WireFrame{}, fmt.Errorf("%w: truncated magic: %w", ErrWireFrame, err)
		}
		switch string(d.hdr[:4]) {
		case wireMagic:
			d.recSize = WireRecordSize
		case wireMagicV1:
			d.recSize = wireRecordSizeV1
		default:
			return WireFrame{}, fmt.Errorf("%w: bad magic %q", ErrWireFrame, d.hdr[:4])
		}
		d.opened = true
	}
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return WireFrame{}, io.EOF // clean end on a frame boundary
		}
		return WireFrame{}, fmt.Errorf("%w: truncated frame header: %w", ErrWireFrame, err)
	}
	length := binary.LittleEndian.Uint32(d.hdr[0:4])
	crc := binary.LittleEndian.Uint32(d.hdr[4:8])
	switch {
	case length == 0:
		return WireFrame{}, fmt.Errorf("%w: empty frame", ErrWireFrame)
	case length > MaxWireFrameBytes:
		return WireFrame{}, fmt.Errorf("%w: frame of %d bytes exceeds max %d", ErrWireFrame, length, MaxWireFrameBytes)
	case length%uint32(d.recSize) != 0:
		return WireFrame{}, fmt.Errorf("%w: frame of %d bytes is not a whole number of %d-byte records", ErrWireFrame, length, d.recSize)
	}
	if cap(d.buf) < int(length) {
		d.buf = make([]byte, length)
	}
	d.buf = d.buf[:length]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		// Double-wrap: callers match ErrWireFrame for framing policy and
		// still reach the transport cause (e.g. *http.MaxBytesError → 413).
		return WireFrame{}, fmt.Errorf("%w: truncated payload: %w", ErrWireFrame, err)
	}
	if sum := crc32.Checksum(d.buf, wireCRCTable); sum != crc {
		return WireFrame{}, fmt.Errorf("%w: payload checksum mismatch: computed %#x, stored %#x", ErrWireFrame, sum, crc)
	}
	return WireFrame{payload: d.buf, recSize: d.recSize, prof: d.prof}, nil
}

// FrameEncoder writes a CBF2 stream, packing addresses under prof. Events
// accumulate into a pending frame that is emitted once it holds maxEvents
// records or on Flush; call Flush before trusting that every added event is
// on the wire.
type FrameEncoder struct {
	w         io.Writer
	buf       []byte // pending frame payload
	hdr       [wireFrameHdrSize]byte
	maxEvents int
	opened    bool
	prof      *hbm.Profile
}

// DefaultFrameEvents is the records-per-frame target an encoder uses when
// none is given: large enough to amortise framing and fsync costs, small
// enough that one frame stays well under MaxWireFrameBytes.
const DefaultFrameEvents = 1024

// NewFrameEncoder is NewFrameEncoderFor under hbm2e. Bench-only until ROADMAP
// item 15.
func NewFrameEncoder(w io.Writer, maxEvents int) *FrameEncoder {
	return NewFrameEncoderFor(hbm.HBM2E, w, maxEvents)
}

// NewFrameEncoderFor returns an encoder over w packing addresses under p and
// batching maxEvents records per frame (0 means DefaultFrameEvents).
func NewFrameEncoderFor(p *hbm.Profile, w io.Writer, maxEvents int) *FrameEncoder {
	if maxEvents <= 0 {
		maxEvents = DefaultFrameEvents
	}
	if max := MaxWireFrameBytes / WireRecordSize; maxEvents > max {
		maxEvents = max
	}
	return &FrameEncoder{w: w, maxEvents: maxEvents, prof: p}
}

// Add appends one event to the pending frame, flushing it when full.
func (e *FrameEncoder) Add(ev Event) error {
	e.buf = RecordOf(e.prof, ev).Append(e.buf)
	if len(e.buf) >= e.maxEvents*WireRecordSize {
		return e.Flush()
	}
	return nil
}

// Flush emits the pending frame, if any. The stream magic is written
// lazily with the first frame, so an encoder that never saw an event
// writes nothing at all.
func (e *FrameEncoder) Flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	if !e.opened {
		if _, err := io.WriteString(e.w, wireMagic); err != nil {
			return fmt.Errorf("mcelog: writing stream magic: %w", err)
		}
		e.opened = true
	}
	binary.LittleEndian.PutUint32(e.hdr[0:4], uint32(len(e.buf)))
	binary.LittleEndian.PutUint32(e.hdr[4:8], crc32.Checksum(e.buf, wireCRCTable))
	if _, err := e.w.Write(e.hdr[:]); err != nil {
		return fmt.Errorf("mcelog: writing frame header: %w", err)
	}
	if _, err := e.w.Write(e.buf); err != nil {
		return fmt.Errorf("mcelog: writing frame payload: %w", err)
	}
	e.buf = e.buf[:0]
	return nil
}

// WriteWire writes the log as a CBF2 frame stream of DefaultFrameEvents
// records per frame, packed under p: the log file format, and at once a valid
// request body for POST /v1/events.bin. An empty log writes nothing.
func (l *Log) WriteWire(p *hbm.Profile, w io.Writer) error {
	enc := NewFrameEncoderFor(p, w, 0)
	for _, e := range l.events {
		if err := enc.Add(e); err != nil {
			return err
		}
	}
	return enc.Flush()
}
