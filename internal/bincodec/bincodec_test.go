package bincodec

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// record exercises every field kind; code is its one layout walk.
type record struct {
	tag    uint8
	on     bool
	id     uint64
	ratio  float64
	small  int32
	count  uint32
	events int64
	at     [4]int64
	rows   []int32
	set    []int32
	blob   []byte
}

func (r *record) code(c *Cursor) {
	c.U8(&r.tag)
	c.Flag(&r.on)
	c.U64(&r.id)
	c.F64(&r.ratio)
	Ranged(c, &r.small, math.MaxInt32)
	Ranged(c, &r.count, math.MaxUint32)
	Ranged(c, &r.events, math.MaxInt64)
	for i := range r.at {
		c.Time(&r.at[i])
	}
	Rows(c, &r.rows, false)
	Rows(c, &r.set, true)
	c.Bytes(&r.blob)
}

func sample() record {
	return record{
		tag: 7, on: true, id: 1 << 63, ratio: math.Copysign(0, -1), small: math.MaxInt32, count: math.MaxUint32, events: 1 << 40,
		at: [4]int64{UnsetTime, 0, time.Date(2025, 1, 1, 0, 0, 0, 999_999_999, time.UTC).UnixNano(),
			time.Date(1969, 12, 31, 23, 59, 59, 250, time.UTC).UnixNano()},
		rows: []int32{9, 3, 9}, set: []int32{0, 4, math.MaxInt32}, blob: []byte("state"),
	}
}

func TestCursorRoundTrip(t *testing.T) {
	want := sample()
	enc := &Cursor{What: "test image"}
	want.code(enc)
	if enc.Err != nil {
		t.Fatal(enc.Err)
	}
	// Timestamps are laid out as time.Time's Unix seconds and nanoseconds,
	// including the floor for instants before 1970 and the zero Time.
	at := enc.B[1+1+8+8+8+8+8:]
	for i, ns := range want.at {
		tm := TimeOf(ns)
		sec, nsec := int64(binary.LittleEndian.Uint64(at[12*i:])), binary.LittleEndian.Uint32(at[12*i+8:])
		if sec != tm.Unix() || int(nsec) != tm.Nanosecond() {
			t.Errorf("time %d stored as (%d s, %d ns), want (%d, %d)", i, sec, nsec, tm.Unix(), tm.Nanosecond())
		}
	}
	var got record
	dec := &Cursor{B: enc.B, Decode: true, What: "test image"}
	got.code(dec)
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	again := &Cursor{}
	got.code(again)
	if !bytes.Equal(again.B, enc.B) {
		t.Fatal("decoded record encodes differently")
	}
	if got.at != want.at || math.Float64bits(got.ratio) != math.Float64bits(want.ratio) || string(got.blob) != "state" {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	// A body written between BeginBytes and EndBytes is framed as Bytes frames it.
	framed, inPlace := &Cursor{}, &Cursor{}
	framed.Bytes(&enc.B)
	start := inPlace.BeginBytes()
	want.code(inPlace)
	inPlace.EndBytes(start)
	if !bytes.Equal(inPlace.B, framed.B) {
		t.Fatal("BeginBytes/EndBytes frame a body differently from Bytes")
	}
	for n := 0; n < len(enc.B); n++ {
		short := &Cursor{B: enc.B[:n], Decode: true}
		new(record).code(short)
		if short.Done() == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	long := &Cursor{B: append(bytes.Clone(enc.B), 0), Decode: true}
	new(record).code(long)
	if err := long.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestCursorRefusesWhatMemoryCannotHold(t *testing.T) {
	good := &Cursor{}
	r := sample()
	r.code(good)
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cases := map[string]func(b []byte){
		"flag byte 2":                func(b []byte) { b[1] = 2 },
		"int32 overflow":             func(b []byte) { copy(b[18:], le64(1<<31)) },
		"negative count":             func(b []byte) { copy(b[26:], le64(1<<63)) },
		"nanoseconds ≥ 1e9":          func(b []byte) { binary.LittleEndian.PutUint32(b[42+12+8:], 1_000_000_000) },
		"seconds beyond int64":       func(b []byte) { copy(b[42+12:], le64(1<<62)) },
		"row list longer than input": func(b []byte) { copy(b[42+48:], le64(1<<20)) },
		"sorted set out of order":    func(b []byte) { copy(b[42+48+8+24+8+8:], le64(0)) },
	}
	for name, corrupt := range cases {
		b := bytes.Clone(good.B)
		corrupt(b)
		c := &Cursor{B: b, Decode: true, What: "test image"}
		new(record).code(c)
		if err := c.Done(); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "test image: ") {
			t.Errorf("%s: error %q does not name the image", name, err)
		}
	}
}
