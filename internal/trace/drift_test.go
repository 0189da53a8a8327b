package trace

import (
	"testing"
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/hbm"
)

func driftSpec(seed uint64) DriftSpec {
	singleHeavy := faultsim.PatternWeights{
		faultsim.PatternSingleRow: 80,
		faultsim.PatternScattered: 20,
	}
	scatteredHeavy := faultsim.PatternWeights{
		faultsim.PatternSingleRow: 20,
		faultsim.PatternScattered: 80,
	}
	return DriftSpec{
		Fault: faultsim.DefaultConfig(hbm.HBM2E),
		Regimes: []Regime{
			{Duration: 30 * 24 * time.Hour, Weights: singleHeavy, UERBanks: 60},
			{Duration: 30 * 24 * time.Hour, Weights: scatteredHeavy, UERBanks: 60},
		},
		Seed: seed,
	}
}

func TestGenerateDriftBasics(t *testing.T) {
	fleet, err := GenerateDrift(driftSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Faults) != 120 || len(fleet.RegimeOf) != 120 {
		t.Fatalf("%d faults, %d regime tags", len(fleet.Faults), len(fleet.RegimeOf))
	}
	// Banks ordered by first-UER time.
	for i := 1; i < len(fleet.Faults); i++ {
		if fleet.Faults[i].UERTimes[0].Before(fleet.Faults[i-1].UERTimes[0]) {
			t.Fatal("faults not ordered by onset")
		}
	}
	// Distinct banks.
	seen := make(map[uint64]bool)
	for _, bf := range fleet.Faults {
		if seen[hbm.HBM2E.Layout.PackBank(bf.Bank)] {
			t.Fatal("bank reused across regimes")
		}
		seen[hbm.HBM2E.Layout.PackBank(bf.Bank)] = true
	}
}

func TestGenerateDriftMixShifts(t *testing.T) {
	fleet, err := GenerateDrift(driftSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	mix0 := fleet.MixOf(0)
	mix1 := fleet.MixOf(1)
	// Regime 0 is single-row-heavy; regime 1 is scattered-heavy.
	if mix0[faultsim.ClassSingleRow] <= mix0[faultsim.ClassScattered] {
		t.Fatalf("regime 0 mix = %v", mix0)
	}
	if mix1[faultsim.ClassScattered] <= mix1[faultsim.ClassSingleRow] {
		t.Fatalf("regime 1 mix = %v", mix1)
	}
}

func TestGenerateDriftOnsetsRespectRegimeWindows(t *testing.T) {
	spec := driftSpec(3)
	fleet, err := GenerateDrift(spec)
	if err != nil {
		t.Fatal(err)
	}
	boundary := spec.Fault.Start.Add(spec.Regimes[0].Duration)
	for i, bf := range fleet.Faults {
		onset := bf.UERTimes[0]
		if fleet.RegimeOf[i] == 0 && onset.After(boundary) {
			t.Fatalf("regime-0 bank onset %v after boundary", onset)
		}
		if fleet.RegimeOf[i] == 1 && onset.Before(boundary) {
			t.Fatalf("regime-1 bank onset %v before boundary", onset)
		}
	}
}

func TestGenerateDriftValidation(t *testing.T) {
	bad := driftSpec(1)
	bad.Regimes = nil
	if _, err := GenerateDrift(bad); err == nil {
		t.Error("empty regimes accepted")
	}
	bad = driftSpec(1)
	bad.Regimes[0].Duration = 0
	if _, err := GenerateDrift(bad); err == nil {
		t.Error("zero duration accepted")
	}
	bad = driftSpec(1)
	bad.Regimes[0].UERBanks = 0
	if _, err := GenerateDrift(bad); err == nil {
		t.Error("zero banks accepted")
	}
	bad = driftSpec(1)
	bad.Regimes[0].Weights = faultsim.PatternWeights{}
	if _, err := GenerateDrift(bad); err == nil {
		t.Error("empty weights accepted")
	}
}
