package ecc

import (
	"testing"
	"testing/quick"

	"cordial/internal/xrand"
)

func TestColumnsDistinctOddWeight(t *testing.T) {
	seen := make(map[uint8]bool)
	for i, c := range columns {
		if w := popcount8(c); w < 3 || w%2 == 0 {
			t.Errorf("column %d = %08b has weight %d, want odd ≥3", i, c, w)
		}
		if seen[c] {
			t.Errorf("column %d = %08b duplicated", i, c)
		}
		seen[c] = true
	}
}

func TestEncodeDecodeCleanRoundTrip(t *testing.T) {
	f := func(data uint64) bool {
		res := Decode(Encode(data))
		return res.Outcome == OutcomeClean && res.Data == data && res.FlippedBit == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBitErrorsAllCorrected(t *testing.T) {
	// Property: every single-bit flip anywhere in the 72-bit codeword is
	// corrected and the original data recovered.
	data := uint64(0xdeadbeefcafef00d)
	cw := Encode(data)
	for pos := 0; pos < TotalBits; pos++ {
		res := Decode(FlipBits(cw, pos))
		if res.Outcome != OutcomeCorrected {
			t.Fatalf("flip at %d: outcome %v, want corrected", pos, res.Outcome)
		}
		if res.Data != data {
			t.Fatalf("flip at %d: data %#x not recovered", pos, res.Data)
		}
		if res.FlippedBit != pos {
			t.Fatalf("flip at %d: reported position %d", pos, res.FlippedBit)
		}
	}
}

func TestSingleBitPropertyRandomData(t *testing.T) {
	f := func(data uint64, pos uint8) bool {
		p := int(pos) % TotalBits
		res := Decode(FlipBits(Encode(data), p))
		return res.Outcome == OutcomeCorrected && res.Data == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleBitErrorsAllDetected(t *testing.T) {
	// Property: every distinct pair of flips is flagged uncorrectable —
	// never silently miscorrected into "clean".
	data := uint64(0x0123456789abcdef)
	cw := Encode(data)
	r := xrand.New(5)
	for trial := 0; trial < 3000; trial++ {
		i := r.Intn(TotalBits)
		j := r.Intn(TotalBits)
		if i == j {
			continue
		}
		res := Decode(FlipBits(cw, i, j))
		if res.Outcome != OutcomeUncorrectable {
			t.Fatalf("double flip (%d,%d): outcome %v, want uncorrectable", i, j, res.Outcome)
		}
	}
}

func TestAllDoubleBitPairsExhaustive(t *testing.T) {
	data := uint64(0xaaaa5555aaaa5555)
	cw := Encode(data)
	for i := 0; i < TotalBits; i++ {
		for j := i + 1; j < TotalBits; j++ {
			res := Decode(FlipBits(cw, i, j))
			if res.Outcome != OutcomeUncorrectable {
				t.Fatalf("pair (%d,%d) outcome %v, want uncorrectable", i, j, res.Outcome)
			}
		}
	}
}

func TestFlipBitsInvolution(t *testing.T) {
	f := func(data uint64, a, b uint8) bool {
		pa, pb := int(a)%TotalBits, int(b)%TotalBits
		cw := Encode(data)
		again := FlipBits(FlipBits(cw, pa, pb), pb, pa)
		return again == cw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FlipBits(72) did not panic")
		}
	}()
	FlipBits(Encode(0), TotalBits)
}

func TestClassify(t *testing.T) {
	tests := []struct {
		outcome Outcome
		access  AccessKind
		want    Class
	}{
		{OutcomeClean, AccessDemand, ClassNone},
		{OutcomeClean, AccessPatrolScrub, ClassNone},
		{OutcomeCorrected, AccessDemand, ClassCE},
		{OutcomeCorrected, AccessPatrolScrub, ClassCE},
		{OutcomeUncorrectable, AccessPatrolScrub, ClassUEO},
		{OutcomeUncorrectable, AccessDemand, ClassUER},
	}
	for _, tc := range tests {
		if got := Classify(tc.outcome, tc.access); got != tc.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", tc.outcome, tc.access, got, tc.want)
		}
	}
}

func TestReadFaulty(t *testing.T) {
	tests := []struct {
		name   string
		flips  []int
		access AccessKind
		want   Class
	}{
		{"clean demand", nil, AccessDemand, ClassNone},
		{"single bit demand", []int{5}, AccessDemand, ClassCE},
		{"single bit scrub", []int{70}, AccessPatrolScrub, ClassCE},
		{"double bit scrub", []int{3, 44}, AccessPatrolScrub, ClassUEO},
		{"double bit demand", []int{3, 44}, AccessDemand, ClassUER},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, res := ReadFaulty(0x1122334455667788, tc.flips, tc.access)
			if got != tc.want {
				t.Fatalf("class = %v, want %v", got, tc.want)
			}
			if tc.want == ClassNone || tc.want == ClassCE {
				if res.Data != 0x1122334455667788 {
					t.Fatalf("data not recovered: %#x", res.Data)
				}
			}
		})
	}
}

func TestClassStringsAndParse(t *testing.T) {
	for _, c := range []Class{ClassNone, ClassCE, ClassUEO, ClassUER} {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("ParseClass(%q) = %v", c.String(), got)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Fatal("ParseClass accepted bogus input")
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeClean:         "clean",
		OutcomeCorrected:     "corrected",
		OutcomeUncorrectable: "uncorrectable",
	} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessPatrolScrub.String() != "patrol-scrub" || AccessDemand.String() != "demand" {
		t.Fatal("unexpected AccessKind strings")
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkDecodeSingleError(b *testing.B) {
	cw := FlipBits(Encode(0xdeadbeef), 17)
	for i := 0; i < b.N; i++ {
		_ = Decode(cw)
	}
}
