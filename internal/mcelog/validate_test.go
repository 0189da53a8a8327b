package mcelog

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// TestValidateTimeBounds pins the ingestion sanity window: zero, pre-epoch
// and far-future timestamps are poison; anything in a plausible deployment
// window passes.
func TestValidateTimeBounds(t *testing.T) {
	cases := []struct {
		name string
		t    time.Time
		ok   bool
	}{
		{"zero", time.Time{}, false},
		{"pre-epoch", time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC), false},
		{"negative-nanos", time.Unix(0, -1), false},
		{"epoch", time.Unix(0, 0), true},
		{"present", time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC), true},
		{"far-future", time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{"way-future", time.Date(2261, 1, 1, 0, 0, 0, 0, time.UTC), false},
	}
	for _, tc := range cases {
		err := ValidateTime(tc.t)
		if tc.ok && err != nil {
			t.Errorf("%s: ValidateTime(%v) = %v, want nil", tc.name, tc.t, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: ValidateTime(%v) = nil, want error", tc.name, tc.t)
		}
	}
}

// TestValidateRejectsPoisonedWireRecords feeds Event.Validate exactly what
// an unchecked record decode produces from attacker-shaped records: flipped-bit
// timestamps and out-of-geometry packed addresses must be rejected, never
// admitted or panicked on.
func TestValidateRejectsPoisonedWireRecords(t *testing.T) {
	g := hbm.DefaultGeometry
	goodAddr := hbm.Address{Row: 1, Column: 2}
	if err := (Event{Time: time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC), Addr: goodAddr, Class: ecc.ClassCE}).Validate(g); err != nil {
		t.Fatalf("baseline event invalid: %v", err)
	}

	poison := []struct {
		name string
		rec  func() []byte
	}{
		{"all-ones-timestamp", func() []byte {
			var rec [WireRecordSize]byte
			binary.LittleEndian.PutUint64(rec[0:8], ^uint64(0)) // -1 ns: pre-epoch
			binary.LittleEndian.PutUint64(rec[8:16], hbm.HBM2E.Layout.Pack(goodAddr))
			rec[16] = byte(ecc.ClassCE)
			return rec[:]
		}},
		{"high-bit-timestamp", func() []byte {
			var rec [WireRecordSize]byte
			binary.LittleEndian.PutUint64(rec[0:8], 1<<63) // hugely negative
			binary.LittleEndian.PutUint64(rec[8:16], hbm.HBM2E.Layout.Pack(goodAddr))
			rec[16] = byte(ecc.ClassCE)
			return rec[:]
		}},
		{"zero-timestamp-unix-epoch-minus", func() []byte {
			var rec [WireRecordSize]byte
			// Max positive nanos: year 2262, beyond MaxEventTime.
			binary.LittleEndian.PutUint64(rec[0:8], uint64(1<<63-1))
			binary.LittleEndian.PutUint64(rec[8:16], hbm.HBM2E.Layout.Pack(goodAddr))
			rec[16] = byte(ecc.ClassCE)
			return rec[:]
		}},
		{"out-of-geometry-addr", func() []byte {
			var rec [WireRecordSize]byte
			binary.LittleEndian.PutUint64(rec[0:8], uint64(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()))
			binary.LittleEndian.PutUint64(rec[8:16], ^uint64(0)) // every field out of range
			rec[16] = byte(ecc.ClassCE)
			return rec[:]
		}},
		{"bad-class", func() []byte {
			var rec [WireRecordSize]byte
			binary.LittleEndian.PutUint64(rec[0:8], uint64(time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()))
			binary.LittleEndian.PutUint64(rec[8:16], hbm.HBM2E.Layout.Pack(goodAddr))
			rec[16] = 0xff
			return rec[:]
		}},
	}
	for _, tc := range poison {
		ev := ParseRecord(tc.rec()).Event(hbm.HBM2E)
		if err := ev.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted poisoned event %+v", tc.name, ev)
		}
	}
}

// TestParseJSONEventRejectsPoisonedTimestamps: the line parser and ReadLog,
// which reads a JSONL file through it for cordial-predict and cordial-study,
// must reject timestamp poison at parse time.
func TestParseJSONEventRejectsPoisonedTimestamps(t *testing.T) {
	for _, tc := range []struct {
		name, line string
	}{
		{"zero-time", `{"time":"0001-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`},
		{"null-time", `{"time":null,"addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`},
		{"pre-epoch", `{"time":"1969-07-20T20:17:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`},
		{"far-future", `{"time":"2300-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`},
		{"nan-time", `{"time":NaN,"addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`},
	} {
		if _, err := ParseJSONEvent([]byte(tc.line)); err == nil {
			t.Errorf("%s: ParseJSONEvent accepted %s", tc.name, tc.line)
		}
		if _, err := ReadLog(hbm.HBM2E, strings.NewReader(tc.line+"\n")); err == nil {
			t.Errorf("%s: ReadLog accepted %s", tc.name, tc.line)
		}
	}

	good := `{"time":"2025-06-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col2","class":"CE"}`
	if _, err := ParseJSONEvent([]byte(good)); err != nil {
		t.Errorf("ParseJSONEvent rejected valid line: %v", err)
	}
	if l, err := ReadLog(hbm.HBM2E, strings.NewReader(good+"\n")); err != nil || l.Len() != 1 {
		t.Errorf("ReadLog rejected valid line: %v", err)
	}
}
