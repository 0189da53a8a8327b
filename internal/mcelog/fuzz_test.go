package mcelog

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"cordial/internal/hbm"
)

// FuzzReadLog feeds ReadLog — the reader of every log file, whichever of
// the two formats it sniffs — arbitrary bytes: it must never panic, and
// whatever it decodes must re-encode through WriteWire to the same events
// (so nothing ReadLog returns is a record the checked decoder would refuse,
// and no accepted input is silently read as a different log).
func FuzzReadLog(f *testing.F) {
	valid := wireFile(f, withBits(randomEvents(10, 1)), 4)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn last frame
	f.Add([]byte{})
	f.Add([]byte("CBF2"))
	mutated := append([]byte{}, valid...)
	mutated[12] ^= 0xff
	f.Add(mutated)
	f.Add(reframe(valid, func(p []byte) { p[16] = 0xEE })) // valid CRC, junk class
	f.Add([]byte(`{"time":"2025-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, _ := ReadLog(hbm.HBM2E, bytes.NewReader(data))
		var out bytes.Buffer
		if err := log.WriteWire(hbm.HBM2E, &out); err != nil {
			t.Fatalf("reserialise: %v", err)
		}
		again, err := ReadLog(hbm.HBM2E, &out)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		sameEvents(t, again, log.Events())
	})
}

// FuzzReadJSONL is FuzzReadLog for JSONL input: ReadLog never panics on it,
// and whatever it decodes writes back through WriteJSONL and reads back to
// the same events.
func FuzzReadJSONL(f *testing.F) {
	l := FromEvents(randomEvents(5, 2))
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"time":"2025-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	// Poisoned-timestamp seeds: zero, pre-epoch and far-future times that
	// the ingest-path validation (ValidateTime) must reject without panic.
	f.Add([]byte(`{"time":"0001-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))
	f.Add([]byte(`{"time":"1969-07-20T20:17:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`))
	f.Add([]byte(`{"time":"2300-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"UER"}`))
	// Out-of-geometry address seed.
	f.Add([]byte(`{"time":"2025-01-01T00:00:00Z","addr":"n999.u99.h9.s9.c99.p9.g9.b9.r99999999.col9999","class":"CE"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, _ := ReadLog(hbm.HBM2E, bytes.NewReader(data))
		var out bytes.Buffer
		if err := log.WriteJSONL(&out); err != nil {
			t.Fatalf("reserialise: %v", err)
		}
		again, err := ReadLog(hbm.HBM2E, &out)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		sameEvents(t, again, log.Events())
	})
}

// FuzzStreamReader is the torn-write property of an event stream, in either
// codec: cut anywhere, a stream reads back as a prefix of what the whole
// stream reads back as — a crashed writer or a dropped connection loses the
// tail, never changes or invents an event.
func FuzzStreamReader(f *testing.F) {
	valid := wireFile(f, withBits(randomEvents(5, 3)), 2)
	f.Add(valid, uint16(10))
	f.Add(valid, uint16(len(valid)-1))
	f.Add([]byte("CBF1\x11\x00"), uint16(5))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		whole, err := ReadLog(hbm.HBM2E, bytes.NewReader(data))
		if int(cut) > len(data) {
			return
		}
		var refused *RecordError
		if err != nil && !errors.Is(err, ErrWireFrame) && !errors.As(err, &refused) && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("stream failed with neither a framing, a record nor a line-length error: %v", err)
		}
		torn, _ := ReadLog(hbm.HBM2E, bytes.NewReader(data[:cut]))
		if torn.Len() > whole.Len() {
			t.Fatalf("%d events from a %d-byte prefix, %d from the whole", torn.Len(), cut, whole.Len())
		}
		sameEvents(t, torn, whole.Events()[:torn.Len()])
	})
}
