package mcelog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"cordial/internal/hbm"
)

func TestJSONLRoundTrip(t *testing.T) {
	l := FromEvents(randomEvents(200, 3))
	l.Sort()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(hbm.HBM2E, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip len = %d, want %d", got.Len(), l.Len())
	}
	events := l.Events()
	for i, have := range got.Events() {
		want := events[i]
		if !want.Time.Equal(have.Time) || want.Addr != have.Addr || want.Class != have.Class {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, want, have)
		}
	}
}

func TestJSONLEmpty(t *testing.T) {
	var l Log
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(hbm.HBM2E, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip len = %d", got.Len())
	}
}

func TestParseJSONEvent(t *testing.T) {
	l := FromEvents(randomEvents(20, 3))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	events := l.Events()
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		got, err := ParseJSONEvent([]byte(line))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := events[i]
		if !got.Time.Equal(want.Time) || got.Addr != want.Addr || got.Class != want.Class {
			t.Fatalf("line %d: %+v != %+v", i, got, want)
		}
	}
	for _, bad := range []string{
		"",
		"not json",
		`{"time":"2026-01-01T00:00:00Z","addr":"bogus","class":"CE"}`,
		`{"time":"2026-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"??"}`,
		`{"addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"CE"}`,
	} {
		if _, err := ParseJSONEvent([]byte(bad)); err == nil {
			t.Errorf("ParseJSONEvent(%q) accepted", bad)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"not json at all",
		`{"time":"2025-01-01T00:00:00Z","addr":"bogus","class":"CE"}`,
		`{"time":"2025-01-01T00:00:00Z","addr":"n1.u2.h1.s0.c5.p1.g2.b3.r1.col8","class":"WAT"}`,
	} {
		if _, err := ReadLog(hbm.HBM2E, strings.NewReader(s)); err == nil {
			t.Errorf("ReadLog accepted %q", s)
		}
	}
}

// TestReadLogJSONLKeepsPrefix: a JSONL file reads as a frame stream does.
// Lines count from 1, blank ones included; a refused line returns the lines
// before it with the error, as a refused record returns the whole frames
// before it; and a line longer than MaxWireFrameBytes ends the body.
func TestReadLogJSONLKeepsPrefix(t *testing.T) {
	events := randomEvents(3, 11)
	var buf bytes.Buffer
	if err := FromEvents(events).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	for _, tc := range []struct {
		name, file, where string
		kept              int
		tooLong           bool
	}{
		{"bad third line", lines[0] + lines[1] + "not json\n" + lines[2], "line 3: ", 2, false},
		{"blank lines counted", "\n" + lines[0] + "\n" + `{"time":"2025-01-01T00:00:00Z","addr":"bogus","class":"CE"}` + "\n", "line 4: ", 1, false},
		{"bad first line", "{}\n" + lines[0], "line 1: ", 0, false},
		{"line over the cap", lines[0] + lines[1] + `{"addr":"` + strings.Repeat("x", MaxWireFrameBytes) + "\"}\n" + lines[2], "", 2, true},
	} {
		log, err := ReadLog(hbm.HBM2E, strings.NewReader(tc.file))
		if log == nil {
			t.Fatalf("%s: no log beside error %v", tc.name, err)
		}
		if tc.tooLong && !errors.Is(err, bufio.ErrTooLong) || !tc.tooLong && (err == nil || !strings.HasPrefix(err.Error(), tc.where)) {
			t.Errorf("%s: error %v, want it at %q", tc.name, err, tc.where)
		}
		sameEvents(t, log, events[:tc.kept])
	}
}

// The tests below are the log-file and event-stream tests of the two binary
// formats CBF2 replaced (the MCEL file codec: TestBinary*; the MCES record
// stream: TestStream*), kept under their names and pointed at the one format
// that remains: Log.WriteWire / ReadLog for files, FrameEncoder / FrameDecoder
// for incremental streams.

// wireFile renders events as a log file of frameEvents records per frame
// (0 = what WriteWire itself does).
func wireFile(t testing.TB, events []Event, frameEvents int) []byte {
	t.Helper()
	if frameEvents == 0 {
		var buf bytes.Buffer
		if err := FromEvents(events).WriteWire(hbm.HBM2E, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return encodeWireStream(t, hbm.HBM2E, events, frameEvents)
}

// withBits gives every event a distinct error-bit pattern.
func withBits(events []Event) []Event {
	for i := range events {
		events[i].Bits = ErrBits(uint16(i*2654435761) & 0x7f3f)
	}
	return events
}

// sameEvents fails unless got holds exactly want, in order.
func sameEvents(t *testing.T, got *Log, want []Event) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("read %d events, want %d", got.Len(), len(want))
	}
	events := got.Events()
	for i, w := range want {
		if g := events[i]; !g.Time.Equal(w.Time) || g.Addr != w.Addr || g.Class != w.Class || g.Bits != w.Bits {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
	}
}

// reframe replaces the first frame's payload of a wire file and recomputes
// its checksum, so only a per-record check can refuse the result.
func reframe(file []byte, mutate func(payload []byte)) []byte {
	out := append([]byte(nil), file...)
	n := binary.LittleEndian.Uint32(out[4:8])
	payload := out[4+wireFrameHdrSize : 4+wireFrameHdrSize+int(n)]
	mutate(payload)
	copy(out[4:], encodeFrame(payload))
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	events := withBits(randomEvents(2500, 4)) // three frames
	got, err := ReadLog(hbm.HBM2E, bytes.NewReader(wireFile(t, events, 0)))
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, got, events)
}

func TestBinaryEmpty(t *testing.T) {
	file := wireFile(t, nil, 0)
	if len(file) != 0 {
		t.Fatalf("empty log wrote %d bytes", len(file))
	}
	got, err := ReadLog(hbm.HBM2E, bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty round trip len = %d", got.Len())
	}
}

func TestBinaryDetectsTruncation(t *testing.T) {
	full := wireFile(t, randomEvents(50, 5), 0)
	// Any cut inside the magic, the frame header or the payload must fail;
	// past the magic it is framing damage.
	for _, cut := range []int{3, 9, 11, 40, len(full) - 1} {
		_, err := ReadLog(hbm.HBM2E, bytes.NewReader(full[:cut]))
		if err == nil {
			t.Errorf("truncation at %d bytes went undetected", cut)
		}
		if cut > 4 && !errors.Is(err, ErrWireFrame) {
			t.Errorf("truncation at %d bytes: error %v does not wrap ErrWireFrame", cut, err)
		}
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	data := wireFile(t, randomEvents(50, 6), 0)
	data[4+wireFrameHdrSize+2] ^= 0xff // inside record 0's timestamp
	if _, err := ReadLog(hbm.HBM2E, bytes.NewReader(data)); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("corrupted file error = %v, want ErrWireFrame", err)
	}
}

func TestBinaryRejectsBadMagicAndVersion(t *testing.T) {
	data := wireFile(t, randomEvents(5, 7), 0)
	for _, magic := range []string{"XBF2", "CBF9"} {
		bad := append([]byte(magic), data[4:]...)
		if _, err := ReadLog(hbm.HBM2E, bytes.NewReader(bad)); err == nil {
			t.Errorf("magic %q accepted", magic)
		}
	}
}

// TestBinaryRejectsInvalidClassByte: file bytes are checked per record. A
// frame whose checksum is right but whose records no collector could have
// logged is refused by ReadLog, while the unchecked frame decoder — whose
// callers validate each event against their geometry — lets it through.
func TestBinaryRejectsInvalidClassByte(t *testing.T) {
	file := wireFile(t, randomEvents(3, 8), 0)
	for _, tc := range []struct {
		name   string
		mutate func(payload []byte)
	}{
		{"invalid class byte", func(p []byte) { p[16] = 0xEE }},
		{"stray address bits", func(p []byte) { binary.LittleEndian.PutUint64(p[8:16], ^uint64(0)) }},
	} {
		bad := reframe(file, tc.mutate)
		if got := decodeWireStream(t, hbm.HBM2E, bad); len(got) != 3 {
			t.Fatalf("%s: frame decoder yielded %d events, want 3", tc.name, len(got))
		}
		log, err := ReadLog(hbm.HBM2E, bytes.NewReader(bad))
		if err == nil || errors.Is(err, ErrWireFrame) || !strings.Contains(err.Error(), "frame 1 record 0") {
			t.Errorf("%s: ReadLog error = %v, want a frame 1 record 0 refusal", tc.name, err)
		}
		if log.Len() != 0 {
			t.Errorf("%s: ReadLog kept %d events of the refused frame", tc.name, log.Len())
		}
	}
}

func TestBinaryMoreCompactThanJSONL(t *testing.T) {
	l := FromEvents(randomEvents(1000, 9))
	var jb, bb bytes.Buffer
	if err := l.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteWire(hbm.HBM2E, &bb); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= jb.Len() {
		t.Fatalf("binary (%d bytes) not smaller than JSONL (%d bytes)", bb.Len(), jb.Len())
	}
}

func TestBinaryHostileCountDoesNotOOM(t *testing.T) {
	// A length prefix claiming gigabytes must be refused before any
	// allocation sized by it.
	data := wireFile(t, randomEvents(3, 99), 0)
	binary.LittleEndian.PutUint32(data[4:8], 0x7fffffff)
	if _, err := ReadLog(hbm.HBM2E, bytes.NewReader(data)); !errors.Is(err, ErrWireFrame) {
		t.Fatalf("hostile length error = %v, want ErrWireFrame", err)
	}
}

func BenchmarkWriteWire(b *testing.B) {
	l := FromEvents(randomEvents(10000, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := l.WriteWire(hbm.HBM2E, &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadLog(b *testing.B) {
	data := wireFile(b, randomEvents(10000, 10), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLog(hbm.HBM2E, bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	// A collector that cannot know the event count up front adds events one
	// at a time; the reader takes them back frame by frame, checked.
	events := withBits(randomEvents(300, 21))
	dec := NewFrameDecoder(bytes.NewReader(wireFile(t, events, 7)))
	got := &Log{}
	for {
		fr, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fr.Len(); i++ {
			ev, err := fr.EventChecked(i)
			if err != nil {
				t.Fatalf("record %d: %v", got.Len(), err)
			}
			got.Append(ev)
		}
	}
	sameEvents(t, got, events)
}

// TestStreamReadAll: ReadLog drains a many-frame stream, and a legacy CBF1
// stream (17-byte records, no error bits) still reads, with Bits zero.
func TestStreamReadAll(t *testing.T) {
	events := randomEvents(50, 22)
	got, err := ReadLog(hbm.HBM2E, bytes.NewReader(wireFile(t, withBits(append([]Event(nil), events...)), 7)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 50 || got.Events()[49].Bits == 0 {
		t.Fatalf("read %d events, last bits %#x", got.Len(), got.Events()[49].Bits)
	}

	var payload []byte
	for _, ev := range events {
		payload = append(payload, AppendWireRecord(nil, ev)[:wireRecordSizeV1]...)
	}
	v1 := append([]byte(wireMagicV1), encodeFrame(payload)...)
	if got, err = ReadLog(hbm.HBM2E, bytes.NewReader(v1)); err != nil {
		t.Fatal(err)
	}
	sameEvents(t, got, events)
}

func TestStreamTornWriteKeepsPrefix(t *testing.T) {
	data := wireFile(t, randomEvents(20, 23), 6) // frames of 6, 6, 6, 2
	log, err := ReadLog(hbm.HBM2E, bytes.NewReader(data[:len(data)-10]))
	if !errors.Is(err, ErrWireFrame) {
		t.Fatalf("torn stream error = %v", err)
	}
	if log.Len() != 18 {
		t.Fatalf("kept %d events before the tear, want 18", log.Len())
	}
}

func TestStreamBitFlipDetected(t *testing.T) {
	data := wireFile(t, randomEvents(5, 24), 1)
	// Flip a byte in frame 2's payload (magic, then two whole frames).
	data[4+2*(wireFrameHdrSize+WireRecordSize)+wireFrameHdrSize+3] ^= 0x40
	log, err := ReadLog(hbm.HBM2E, bytes.NewReader(data))
	if !errors.Is(err, ErrWireFrame) {
		t.Fatalf("bit flip error = %v", err)
	}
	if log.Len() != 2 {
		t.Fatalf("kept %d events before corruption, want 2", log.Len())
	}
}

func TestStreamRejectsBadHeader(t *testing.T) {
	for name, data := range map[string][]byte{
		"torn frame header":  []byte("CBF2\x13\x00"),
		"empty frame":        append([]byte("CBF2"), make([]byte, wireFrameHdrSize)...),
		"legacy, torn frame": []byte("CBF1\x11\x00\x00\x00"),
	} {
		if log, err := ReadLog(hbm.HBM2E, bytes.NewReader(data)); !errors.Is(err, ErrWireFrame) || log.Len() != 0 {
			t.Errorf("%s: ReadLog = %d events, %v; want ErrWireFrame", name, log.Len(), err)
		}
	}
}

// TestStreamRejectsInvalidClassEvenWithValidCRC: a refused record takes its
// whole frame with it — the events ReadLog returns beside the error are
// those of the complete frames before, never part of a frame.
func TestStreamRejectsInvalidClassEvenWithValidCRC(t *testing.T) {
	events := randomEvents(8, 25)
	first := wireFile(t, events[:4], 0)
	second := reframe(wireFile(t, events[4:], 0), func(p []byte) { p[2*WireRecordSize+16] = 0xEE })
	log, err := ReadLog(hbm.HBM2E, bytes.NewReader(append(first, second[4:]...)))
	if err == nil || !strings.Contains(err.Error(), "frame 2 record 2") {
		t.Fatalf("invalid class error = %v", err)
	}
	sameEvents(t, log, events[:4])
}
