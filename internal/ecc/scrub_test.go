package ecc

import (
	"testing"
	"time"
)

var scrubEpoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

func at(h int) time.Time { return scrubEpoch.Add(time.Duration(h) * time.Hour) }

func TestFaultValidate(t *testing.T) {
	good := Fault{Bits: []int{3}, Kind: FaultStuck, Onset: at(1)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{
		{Bits: nil, Kind: FaultStuck, Onset: at(1)},
		{Bits: []int{72}, Kind: FaultStuck, Onset: at(1)},
		{Bits: []int{-1}, Kind: FaultStuck, Onset: at(1)},
		{Bits: []int{1}, Kind: FaultKind(9), Onset: at(1)},
		{Bits: []int{1}, Kind: FaultStuck},
	} {
		if err := f.Validate(); err == nil {
			t.Errorf("fault %+v accepted", f)
		}
	}
}

func TestFaultMapReadClean(t *testing.T) {
	var m FaultMap
	if got := m.Read(0, at(1), AccessDemand); got != ClassNone {
		t.Fatalf("clean read = %v", got)
	}
}

func TestFaultMapSingleBitStuckIsCE(t *testing.T) {
	var m FaultMap
	if err := m.AddFault(5, Fault{Bits: []int{10}, Kind: FaultStuck, Onset: at(1)}); err != nil {
		t.Fatal(err)
	}
	// Before onset: clean.
	if got := m.Read(5, at(0), AccessDemand); got != ClassNone {
		t.Fatalf("pre-onset read = %v", got)
	}
	// After onset: correctable on both access kinds, repeatedly (stuck
	// faults are not cleared by scrubbing).
	for i := 0; i < 3; i++ {
		if got := m.Read(5, at(2+i), AccessPatrolScrub); got != ClassCE {
			t.Fatalf("scrub read %d = %v", i, got)
		}
	}
	if got := m.Read(5, at(9), AccessDemand); got != ClassCE {
		t.Fatalf("demand read = %v", got)
	}
}

func TestFaultMapDoubleBitClassification(t *testing.T) {
	var m FaultMap
	if err := m.AddFault(7, Fault{Bits: []int{1, 2}, Kind: FaultStuck, Onset: at(1)}); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(7, at(2), AccessPatrolScrub); got != ClassUEO {
		t.Fatalf("scrub hit = %v, want UEO", got)
	}
	if got := m.Read(7, at(3), AccessDemand); got != ClassUER {
		t.Fatalf("demand hit = %v, want UER", got)
	}
}

func TestScrubRepairsTransientFaults(t *testing.T) {
	var m FaultMap
	if err := m.AddFault(9, Fault{Bits: []int{4}, Kind: FaultTransient, Onset: at(1)}); err != nil {
		t.Fatal(err)
	}
	// First scrub sees and corrects the flip, rewriting the word.
	if got := m.Read(9, at(2), AccessPatrolScrub); got != ClassCE {
		t.Fatalf("first scrub = %v", got)
	}
	// Subsequent reads are clean: the corruption is gone.
	if got := m.Read(9, at(3), AccessPatrolScrub); got != ClassNone {
		t.Fatalf("second scrub = %v, want clean", got)
	}
	if got := m.Read(9, at(4), AccessDemand); got != ClassNone {
		t.Fatalf("demand after scrub = %v, want clean", got)
	}
}

func TestDemandReadDoesNotRepair(t *testing.T) {
	var m FaultMap
	if err := m.AddFault(9, Fault{Bits: []int{4}, Kind: FaultTransient, Onset: at(1)}); err != nil {
		t.Fatal(err)
	}
	// Demand reads correct in flight but leave the stored word corrupt.
	if got := m.Read(9, at(2), AccessDemand); got != ClassCE {
		t.Fatalf("demand read = %v", got)
	}
	if got := m.Read(9, at(3), AccessDemand); got != ClassCE {
		t.Fatalf("second demand read = %v, want still CE", got)
	}
}

func TestTransientAccumulationBecomesUncorrectable(t *testing.T) {
	// Two transient single-bit faults on the same word, no scrub in
	// between: the accumulated double-bit corruption is uncorrectable —
	// the CE-accumulation pathway of §II-B.
	var m FaultMap
	if err := m.AddFault(3, Fault{Bits: []int{1}, Kind: FaultTransient, Onset: at(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(3, Fault{Bits: []int{9}, Kind: FaultTransient, Onset: at(5)}); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(3, at(6), AccessDemand); got != ClassUER {
		t.Fatalf("accumulated faults = %v, want UER", got)
	}
}

func TestScrubPreventsAccumulation(t *testing.T) {
	var m FaultMap
	if err := m.AddFault(3, Fault{Bits: []int{1}, Kind: FaultTransient, Onset: at(1)}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddFault(3, Fault{Bits: []int{9}, Kind: FaultTransient, Onset: at(5)}); err != nil {
		t.Fatal(err)
	}
	// A scrub between the two onsets repairs the first flip...
	if got := m.Read(3, at(2), AccessPatrolScrub); got != ClassCE {
		t.Fatalf("scrub = %v", got)
	}
	// ...so the second fault is again a lone correctable bit.
	if got := m.Read(3, at(6), AccessDemand); got != ClassCE {
		t.Fatalf("post-scrub read = %v, want CE", got)
	}
}

func TestFaultMapRejectsInvalidFault(t *testing.T) {
	var m FaultMap
	if err := m.AddFault(1, Fault{}); err == nil {
		t.Fatal("invalid fault accepted")
	}
}

func TestFaultyWordsSorted(t *testing.T) {
	var m FaultMap
	for _, w := range []uint64{9, 1, 5} {
		if err := m.AddFault(w, Fault{Bits: []int{1}, Kind: FaultStuck, Onset: at(0)}); err != nil {
			t.Fatal(err)
		}
	}
	words := m.FaultyWords()
	if len(words) != 3 || words[0] != 1 || words[1] != 5 || words[2] != 9 {
		t.Fatalf("FaultyWords = %v", words)
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultTransient.String() != "transient" || FaultStuck.String() != "stuck" {
		t.Fatal("fault kind strings wrong")
	}
}
