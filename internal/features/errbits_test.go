package features

import (
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// errBitTestEvents builds a mixed sequence: a stable-pin fault signature
// (pin 3 recurring), scattered multi-pin events, and events with no
// reported bits.
func errBitTestEvents() []mcelog.Event {
	t0 := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	mk := func(i, row int, class ecc.Class, bits mcelog.ErrBits) mcelog.Event {
		return mcelog.Event{
			Time:  t0.Add(time.Duration(i) * time.Hour),
			Addr:  hbm.CellInBank(hbm.BankAddress{Node: 1}, row, i%8),
			Class: class,
			Bits:  bits,
		}
	}
	return []mcelog.Event{
		mk(0, 100, ecc.ClassCE, mcelog.MakeErrBits(1<<3, 1<<0)),
		mk(1, 101, ecc.ClassCE, 0), // no syndrome detail
		mk(2, 102, ecc.ClassCE, mcelog.MakeErrBits(1<<3, 1<<2)),
		mk(3, 103, ecc.ClassUEO, mcelog.MakeErrBits(1<<3|1<<5, 1<<2)),
		mk(4, 104, ecc.ClassUER, mcelog.MakeErrBits(1<<1|1<<6|1<<7, 1<<4|1<<5)),
		mk(5, 105, ecc.ClassUER, mcelog.MakeErrBits(1<<3, 1<<0)),
	}
}

// TestErrBitIncrementalMatchesReference pins the incremental accumulator to
// the batch reference at every prefix, including the empty one.
func TestErrBitIncrementalMatchesReference(t *testing.T) {
	events := errBitTestEvents()
	st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= len(events); n++ {
		if n > 0 {
			st.Observe(events[n-1])
		}
		got, err := st.ErrBitVector()
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		want := referenceErrBitVector(events[:n])
		if len(got) != errBitFeatureCount || len(want) != errBitFeatureCount {
			t.Fatalf("prefix %d: lengths %d/%d, want %d", n, len(got), len(want), errBitFeatureCount)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("prefix %d, feature %q: incremental %v, reference %v",
					n, ErrBitFeatureNames()[i], got[i], want[i])
			}
		}
	}
}

// TestErrBitVectorValues checks the aggregates on a hand-computed sequence.
func TestErrBitVectorValues(t *testing.T) {
	got, err := errBitVector(errBitTestEvents())
	if err != nil {
		t.Fatal(err)
	}
	// 5 events carry bits; pin 3 appears in 4 of them; DQ union is pins
	// {1,3,5,6,7}; popcounts 1,1,2,3,1 sum 8; burst union {0,2,4,5};
	// popcounts 1,1,1,2,1 sum 6.
	want := []float64{5, 5, 4.0 / 5, 8.0 / 5, 4, 6.0 / 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %q = %v, want %v", ErrBitFeatureNames()[i], got[i], want[i])
		}
	}
}

// TestErrBitVectorEmpty: no err-bit events yields a zero count and Missing
// statistics — and events whose Bits are all zero count as none.
func TestErrBitVectorEmpty(t *testing.T) {
	for _, events := range [][]mcelog.Event{nil, {
		{Time: time.Now().UTC(), Addr: hbm.CellInBank(hbm.BankAddress{}, 1, 1), Class: ecc.ClassCE},
	}} {
		got, err := errBitVector(events)
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{0, Missing, Missing, Missing, Missing, Missing}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("feature %q = %v, want %v", ErrBitFeatureNames()[i], got[i], want[i])
			}
		}
	}
}

// TestCodecRoundTripsErrBits: a v2 snapshot restores the error-bit
// accumulator bit-identically.
func TestCodecRoundTripsErrBits(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errBitTestEvents() {
		st.Observe(e)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalBankState(blob)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := st.ErrBitVector()
	got, err := restored.ErrBitVector()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("restored feature %q = %v, want %v", ErrBitFeatureNames()[i], got[i], want[i])
		}
	}
}

// TestCodecDecodesV1 pins backward compatibility: a version-1 snapshot
// (no error-bit section) still decodes, with an empty accumulator.
func TestCodecDecodesV1(t *testing.T) {
	st, err := NewBankState(DefaultPatternConfig(), DefaultBlockSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range errBitTestEvents() {
		e.Bits = 0 // a v1 producer never saw error bits
		st.Observe(e)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalBankState(asV1(blob))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ErrBitVector()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("v1 snapshot decoded with errbit count %v, want 0", got[0])
	}
	if restored.events != st.events {
		t.Errorf("v1 snapshot decoded with %d events, want %d", restored.events, st.events)
	}
}
