package stream

import (
	"testing"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/trace"
)

// The online≡offline gate under a non-default topology profile (the crash
// gate's ddr5-dimm schedules are TestCrashPropertyDDR5's). Packed bank keys,
// WAL records, and snapshot images all follow the active profile's layout;
// a profile-dependent bug in any of them shows up here and nowhere in the
// HBM2E-default suites.

// ddrTestBank returns a distinct DDR5 bank address; the bank index parity
// controls the fake strategy's bank-spare vs row-spare branch, as with
// testBank.
func ddrTestBank(i int) hbm.BankAddress {
	return hbm.BankAddress{
		Node:      uint32(i % 8),
		Rank:      uint8(i / 2 % 2),
		Device:    uint8(i / 4 % 8),
		BankGroup: uint8(i % 8),
		Bank:      uint8(i % 4),
	}
}

// TestOnlineOfflineEquivalenceDDR5 is the online/offline skew gate under
// the ddr5-dimm profile: a trained Cordial strategy over a DDR5 fleet must
// make identical decisions event-by-event online and in per-bank offline
// replay.
func TestOnlineOfflineEquivalenceDDR5(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a pipeline")
	}
	prev := hbm.ActivateProfile(hbm.DDR5DIMM)
	defer hbm.ActivateProfile(prev)
	geo := hbm.DDR5DIMM.Geometry

	spec := trace.DefaultSpec(geo)
	spec.UERBanks = 60
	spec.BenignBanks = 0
	spec.Seed = 13
	fleet, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Params = core.ModelParams{Trees: 12, Depth: 8}
	pipe, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Fit(fleet.Faults); err != nil {
		t.Fatal(err)
	}
	strategy := &core.CordialStrategy{Pipeline: pipe, Geometry: geo}

	eval := trace.DefaultSpec(geo)
	eval.UERBanks = 25
	eval.BenignBanks = 40
	eval.Seed = 14
	evalFleet, err := trace.Generate(eval)
	if err != nil {
		t.Fatal(err)
	}
	assertOnlineOfflineEquivalent(t, strategy, evalFleet)
}
