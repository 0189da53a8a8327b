package features

import (
	"bytes"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// FuzzIncrementalFeatureEquivalence decodes arbitrary bytes into a
// nondecreasing-timestamp event stream and asserts that the incremental
// BankState is bit-identical to the batch reference at every prefix, for
// both the pattern vector and every block vector (BlockVector and the rows
// of BlockVectorsInto alike). This is the correctness pin for the
// O(1)-per-event refactor: any divergence between the two paths, however
// obscure the triggering sequence, is a crash here.
func FuzzIncrementalFeatureEquivalence(f *testing.F) {
	// Seeds cover the known-tricky shapes: timestamp ties at the first
	// UER, cutoff extensions revealing pending events, repeat UER rows,
	// and post-budget traffic.
	f.Add([]byte{0x00})
	f.Add([]byte{0x13, 0x02, 0x10, 0x00, 0x02, 0x14, 0x03, 0x00, 0x10, 0x05})
	f.Add([]byte{0x21, 0x02, 0x20, 0x04, 0x02, 0x20, 0x00, 0x00, 0x21, 0x07, 0x02, 0x20, 0x00})
	f.Add([]byte{0x02, 0x02, 0x08, 0x11, 0x02, 0x08, 0x00, 0x02, 0x08, 0x09, 0x01, 0x30, 0x22})
	// The unset-timestamp edge: the first event is the first UER and (budget
	// 1) the cutoff, all at one timestamp, with ties of every class on both
	// sides of it and later traffic that must stay invisible.
	f.Add([]byte{0x00, 0x03, 0x00, 0x02, 0x03, 0x07, 0x20, 0x23})
	f.Add([]byte{0x01, 0x00, 0x03, 0x03, 0x02, 0x00, 0x07, 0x2b, 0x03, 0x40})
	f.Add([]byte{0x02, 0x03, 0x07, 0x0b, 0x00, 0x02, 0x20, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte picks the budget (1..4) and the block geometry.
		cfg := PatternConfig{UERBudget: 1 + int(data[0]&0x03)}
		spec := BlockSpec{WindowRadius: 8, BlockSize: 4}
		if data[0]&0x04 != 0 {
			spec = BlockSpec{WindowRadius: 16, BlockSize: 8}
		}
		data = data[1:]

		// Each subsequent byte is one event:
		//   bits 0-1  class (3 maps to CE, keeping all classes reachable)
		//   bits 2-4  row delta from a small palette, so rows cluster,
		//             repeat, and occasionally jump out of the window
		//   bits 5-7  time advance in 13-minute steps (0 = duplicate
		//             timestamp, the tie cases the cutoff logic must get
		//             exactly right)
		const maxEvents = 120
		if len(data) > maxEvents {
			data = data[:maxEvents]
		}
		events := make([]mcelog.Event, 0, len(data))
		now := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
		row := 100
		deltas := [8]int{0, 1, -1, 3, -3, 20, -20, 7}
		classes := [4]ecc.Class{ecc.ClassCE, ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}
		for _, b := range data {
			class := classes[b&0x03]
			row += deltas[(b>>2)&0x07]
			if row < 0 {
				row = 0
			}
			now = now.Add(time.Duration(b>>5) * 13 * time.Minute)
			events = append(events, mcelog.Event{Time: now, Addr: hbmAddr(row), Class: class})
		}
		assertPrefixEquivalence(t, freshState(t, cfg, spec), events)
	})
}

// errBitSectionLen is the length of the version-2 tail (the error-bit
// accumulator): int count, two u8 masks, eight int pin counts, two int sums.
const errBitSectionLen = 8 + 1 + 1 + 8*8 + 8 + 8

// asV1 rewrites a version-2 image as the version-1 image of the same state.
func asV1(v2 []byte) []byte {
	v1 := append([]byte(nil), v2[:len(v2)-errBitSectionLen]...)
	v1[4] = bankStateVersionV1
	return v1
}

// FuzzUnmarshalBankState feeds the snapshot decoder arbitrary bytes. The
// state holds rows, counts and times in fewer bits than the layout and
// binary-searches its row tables, so anything the decoder lets through must
// be exactly representable: either it errors, or the decoded state encodes
// back to the input byte for byte (a version-1 input to a version-2 image
// that is itself a fixed point) and survives further events and queries.
func FuzzUnmarshalBankState(f *testing.F) {
	for _, g := range goldenFixtures() {
		v2 := g.golden(f)
		f.Add(v2)
		f.Add(asV1(v2))
	}
	fresh, err := NewBankState(PatternConfig{UERBudget: 1}, BlockSpec{WindowRadius: 8, BlockSize: 4})
	if err != nil {
		f.Fatal(err)
	}
	blob, _ := fresh.MarshalBinary()
	f.Add(blob)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := UnmarshalBankState(data)
		if err != nil {
			return
		}
		image, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if data[4] == bankStateVersionV1 {
			data = image
			if st, err = UnmarshalBankState(image); err != nil {
				t.Fatalf("re-encoded version-1 state does not decode: %v", err)
			}
			if image, err = st.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(image, data) {
			t.Fatalf("decoded state re-encodes differently (%d vs %d bytes)", len(image), len(data))
		}
		// Whatever was accepted must be safe to keep using.
		now := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
		for i, class := range []ecc.Class{ecc.ClassCE, ecc.ClassUER, ecc.ClassUEO, ecc.ClassUER} {
			st.Observe(mcelog.Event{Time: now.Add(time.Duration(i) * time.Minute), Addr: hbmAddr(50 + 3*i), Class: class})
			_, _ = st.PatternVector()
			for b := 0; b < st.Spec().NumBlocks() && b < 64; b++ {
				if _, err := st.BlockVector(50, b, now.Add(time.Hour)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := st.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	})
}
