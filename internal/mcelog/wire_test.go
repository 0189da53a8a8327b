package mcelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// wireTestEvents builds n distinct valid events under the default geometry.
func wireTestEvents(n int) []Event { return wireTestEventsFor(hbm.DefaultGeometry, n) }

// wireTestEventsFor builds n events valid under the given geometry. The
// rank/device dimensions use the zero-means-one normalisation so the same
// helper serves HBM and DIMM profiles.
func wireTestEventsFor(g hbm.Geometry, n int) []Event {
	dim := func(d int) int {
		if d < 1 {
			return 1
		}
		return d
	}
	evs := make([]Event, n)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	classes := []ecc.Class{ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
	for i := range evs {
		evs[i] = Event{
			Time: base.Add(time.Duration(i) * time.Millisecond),
			Addr: hbm.Address{
				Node:          uint32(i % g.Nodes),
				NPU:           uint8(i % g.NPUsPerNode),
				HBM:           uint8(i % g.HBMsPerNPU),
				SID:           uint8(i % g.SIDsPerHBM),
				Channel:       uint8(i % g.ChannelsPerSID),
				PseudoChannel: uint8(i % g.PseudoChPerCh),
				Rank:          uint8(i % dim(g.RanksPerModule)),
				Device:        uint8(i % dim(g.DevicesPerRank)),
				BankGroup:     uint8(i % g.BankGroups),
				Bank:          uint8(i % g.BanksPerGroup),
				Row:           i % g.RowsPerBank,
				Column:        i % g.ColsPerBank,
			},
			Class: classes[i%len(classes)],
		}
	}
	return evs
}

// encodeWireStream renders events into frames of frameEvents records each.
func encodeWireStream(t testing.TB, p *hbm.Profile, evs []Event, frameEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewFrameEncoderFor(p, &buf, frameEvents)
	for _, ev := range evs {
		if err := enc.Add(ev); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func decodeWireStream(t testing.TB, p *hbm.Profile, data []byte) []Event {
	t.Helper()
	dec := &FrameDecoder{r: bytes.NewReader(data), prof: p}
	var out []Event
	for {
		fr, err := dec.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for i := 0; i < fr.Len(); i++ {
			out = append(out, fr.Event(i))
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, frameEvents := range []int{1, 3, 64, 0} {
		evs := wireTestEvents(257)
		data := encodeWireStream(t, hbm.HBM2E, evs, frameEvents)
		got := decodeWireStream(t, hbm.HBM2E, data)
		if len(got) != len(evs) {
			t.Fatalf("frameEvents=%d: decoded %d events, want %d", frameEvents, len(got), len(evs))
		}
		for i := range evs {
			if !got[i].Time.Equal(evs[i].Time) || got[i].Addr != evs[i].Addr || got[i].Class != evs[i].Class {
				t.Fatalf("frameEvents=%d: event %d mismatch: got %+v want %+v", frameEvents, i, got[i], evs[i])
			}
		}
	}
}

func TestWireEmptyStream(t *testing.T) {
	// Zero bytes is a clean zero-event stream (an empty HTTP body), and so
	// is a stream holding only the magic.
	for _, data := range [][]byte{nil, []byte(wireMagic)} {
		dec := NewFrameDecoder(bytes.NewReader(data))
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("Next on %d-byte stream: got %v, want io.EOF", len(data), err)
		}
	}
	// An encoder that never saw an event writes nothing, matching.
	var buf bytes.Buffer
	if err := NewFrameEncoder(&buf, 8).Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty encoder wrote %d bytes", buf.Len())
	}
}

func TestWireDecodeErrors(t *testing.T) {
	evs := wireTestEvents(10)
	good := encodeWireStream(t, hbm.HBM2E, evs, 5)

	corrupt := func(mutate func(b []byte) []byte) error {
		b := mutate(append([]byte(nil), good...))
		dec := NewFrameDecoder(bytes.NewReader(b))
		for {
			if _, err := dec.Next(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
	}

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"truncated magic", func(b []byte) []byte { return b[:2] }},
		{"truncated header", func(b []byte) []byte { return b[:4+3] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"flipped payload bit", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"flipped crc", func(b []byte) []byte { b[4+4] ^= 1; return b }},
		{"zero length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], 0)
			return b
		}},
		{"oversize length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], MaxWireFrameBytes+WireRecordSize)
			return b
		}},
		{"ragged length", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:8], WireRecordSize+1)
			return b
		}},
	}
	for _, tc := range cases {
		err := corrupt(tc.mutate)
		if err == nil {
			t.Errorf("%s: decoded cleanly, want ErrWireFrame", tc.name)
			continue
		}
		if !errors.Is(err, ErrWireFrame) {
			t.Errorf("%s: error %v does not wrap ErrWireFrame", tc.name, err)
		}
	}
}

// TestWireDecodeZeroAllocs pins the tentpole property: once the decoder's
// buffer has warmed up, decoding a stream allocates nothing.
func TestWireDecodeZeroAllocs(t *testing.T) {
	evs := wireTestEvents(4096)
	data := encodeWireStream(t, hbm.HBM2E, evs, 512)
	dec := NewFrameDecoder(bytes.NewReader(nil))
	var rd bytes.Reader
	var sink int
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		dec.Reset(&rd)
		for {
			fr, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			for i := 0; i < fr.Len(); i++ {
				ev := fr.Event(i)
				sink += ev.Addr.Row + int(ev.Class)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocated %.1f times per stream, want 0", allocs)
	}
	_ = sink
}

// TestWireProfileMatrix re-runs the round trip and the zero-alloc pin under
// every registered topology profile: packed addresses on the wire follow the
// profile's layout, so both ends must agree, and the decode path must stay
// allocation-free regardless of topology.
func TestWireProfileMatrix(t *testing.T) {
	for _, name := range hbm.ProfileNames() {
		p, err := hbm.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			evs := wireTestEventsFor(p.Geometry, 1024)
			for i := range evs {
				evs[i].Bits = ErrBits(uint16(i*2654435761) & 0x7f3f)
			}
			data := encodeWireStream(t, p, evs, 128)
			got := decodeWireStream(t, p, data)
			if len(got) != len(evs) {
				t.Fatalf("decoded %d events, want %d", len(got), len(evs))
			}
			for i := range evs {
				if !got[i].Time.Equal(evs[i].Time) || got[i].Addr != evs[i].Addr ||
					got[i].Class != evs[i].Class || got[i].Bits != evs[i].Bits {
					t.Fatalf("event %d mismatch: got %+v want %+v", i, got[i], evs[i])
				}
			}

			dec := &FrameDecoder{prof: p}
			var rd bytes.Reader
			var sink int
			allocs := testing.AllocsPerRun(20, func() {
				rd.Reset(data)
				dec.Reset(&rd)
				for {
					fr, err := dec.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("Next: %v", err)
					}
					for i := 0; i < fr.Len(); i++ {
						ev := fr.Event(i)
						sink += ev.Addr.Row + int(ev.Class)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state decode under %s allocated %.1f times per stream, want 0", name, allocs)
			}
			_ = sink
		})
	}
}

// FuzzBinaryFrameDecode mirrors FuzzWALDecode for the wire framing:
// arbitrary bytes must decode to frames whose checksums re-verify, or
// produce an error — never a panic, never an over-allocation.
func FuzzBinaryFrameDecode(f *testing.F) {
	evs := wireTestEvents(9)
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf, 4)
	for _, ev := range evs {
		if err := enc.Add(ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-3]) // truncated payload
	f.Add([]byte(wireMagic))  // magic only
	f.Add([]byte{})           // empty stream
	f.Add([]byte("CBF0"))     // wrong magic
	oversize := append([]byte(wireMagic), make([]byte, wireFrameHdrSize)...)
	binary.LittleEndian.PutUint32(oversize[4:8], MaxWireFrameBytes+1)
	f.Add(oversize) // oversize length prefix
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x40
	f.Add(bad) // CRC mismatch
	// Correctly framed but poisoned payload: all-ones timestamp (pre-epoch
	// once sign-extended), out-of-geometry packed address, junk class byte.
	// The framing layer must pass it through (its CRC is valid) and leave
	// the rejection to per-record validation — decoding must not panic.
	poison := make([]byte, WireRecordSize)
	for i := range poison {
		poison[i] = 0xff
	}
	f.Add(append([]byte(wireMagic), encodeFrame(poison)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewFrameDecoder(bytes.NewReader(data))
		total := 0
		for {
			fr, err := dec.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrWireFrame) {
					t.Fatalf("non-frame error from decoder: %v", err)
				}
				break
			}
			if fr.Len() < 1 || len(fr.payload)%WireRecordSize != 0 {
				t.Fatalf("accepted frame with invalid shape: %d payload bytes", len(fr.payload))
			}
			if len(fr.payload) > MaxWireFrameBytes {
				t.Fatalf("accepted frame over MaxWireFrameBytes: %d", len(fr.payload))
			}
			// An accepted frame's payload must re-verify against a freshly
			// computed checksum and decode without panicking.
			sum := crc32.Checksum(fr.payload, wireCRCTable)
			rt := encodeFrame(fr.payload)
			if binary.LittleEndian.Uint32(rt[4:8]) != sum {
				t.Fatal("accepted frame does not re-verify")
			}
			for i := 0; i < fr.Len(); i++ {
				_ = fr.Event(i)
			}
			total += fr.Len()
			if total > len(data) { // each event costs ≥17 input bytes
				t.Fatalf("decoded %d events from %d input bytes", total, len(data))
			}
		}
	})
}

// encodeFrame frames one payload (header only, no magic) for fuzz
// re-verification.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, wireFrameHdrSize)
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.Checksum(payload, wireCRCTable))
	return append(out, payload...)
}

func BenchmarkWireFrameDecode(b *testing.B) {
	evs := wireTestEvents(4096)
	data := encodeWireStream(b, hbm.HBM2E, evs, 512)
	dec := NewFrameDecoder(bytes.NewReader(nil))
	var rd bytes.Reader
	var sink int
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rd.Reset(data)
		dec.Reset(&rd)
		for {
			fr, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < fr.Len(); i++ {
				sink += fr.Event(i).Addr.Row
			}
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(evs))/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(len(evs))), "ns/event")
	_ = sink
}

func BenchmarkWireFrameEncode(b *testing.B) {
	evs := wireTestEvents(4096)
	var buf bytes.Buffer
	enc := NewFrameEncoder(&buf, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf.Reset()
		for _, ev := range evs {
			if err := enc.Add(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(len(evs))), "ns/event")
}
