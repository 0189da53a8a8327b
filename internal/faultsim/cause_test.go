package faultsim

import (
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

// causesOf returns the root causes consistent with the pattern.
func causesOf(p Pattern) map[Cause]bool {
	out := make(map[Cause]bool)
	for _, e := range causeWeights[p] {
		out[e.cause] = true
	}
	return out
}

func TestSampleCauseConsistentWithPattern(t *testing.T) {
	r := xrand.New(1)
	for _, p := range AllPatterns {
		allowed := causesOf(p)
		if len(allowed) == 0 {
			t.Fatalf("pattern %v has no causes", p)
		}
		for i := 0; i < 200; i++ {
			if c := SampleCause(p, r); !allowed[c] {
				t.Fatalf("pattern %v sampled cause %v not in %v", p, c, allowed)
			}
		}
	}
}

func TestSampleCauseDistribution(t *testing.T) {
	r := xrand.New(2)
	counts := make(map[Cause]int)
	const n = 5000
	for i := 0; i < n; i++ {
		counts[SampleCause(PatternSingleRow, r)]++
	}
	swd := float64(counts[CauseSWD]) / n
	if swd < 0.80 || swd > 0.90 {
		t.Fatalf("single-row SWD share = %.3f, want ~0.85", swd)
	}
}

func TestGenerateAssignsCause(t *testing.T) {
	g := newGen(t, 31)
	for _, p := range AllPatterns {
		bf, err := g.Generate(hbm.BankAddress{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !causesOf(p)[bf.Cause] {
			t.Fatalf("pattern %v got cause %v", p, bf.Cause)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	for _, c := range []Cause{CauseSWD, CauseTSV, CauseMicroBump, CauseColumnDriver, CauseWeakCells} {
		if s := c.String(); s == "" || s[0] == 'C' {
			t.Errorf("Cause(%d).String() = %q", int(c), s)
		}
	}
}
