package stream

import (
	"fmt"
	"testing"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// These tests re-run the two equivalence gates — online≡offline and
// crash≡no-crash — under a non-default topology profile. Packed bank keys,
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

// TestCrashRecoveryEquivalenceDDR5 is the durability gate under the
// ddr5-dimm profile: randomized kill points, with and without an intervening
// snapshot, must recover to byte-identical session state and the same action
// set as an uninterrupted run.
func TestCrashRecoveryEquivalenceDDR5(t *testing.T) {
	prev := hbm.ActivateProfile(hbm.DDR5DIMM)
	defer hbm.ActivateProfile(prev)

	r := xrand.New(41)
	const banks, n = 10, 300
	evs := make([]mcelog.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := uerAt(ddrTestBank(r.Intn(banks)), 1+r.Intn(8), i)
		if r.Intn(4) == 0 {
			ev.Class = ecc.ClassCE
		}
		evs = append(evs, ev)
	}
	strategy := &fakeStrategy{budget: 3}
	refPayload, wantActions := refRun(t, strategy, evs, 4)
	wantBody := refPayload[snapBodyOffset:]

	for trial := 0; trial < 4; trial++ {
		kill := r.Intn(n + 1)
		snapAt := -1
		if trial%2 == 1 && kill > 1 {
			snapAt = r.Intn(kill)
		}
		t.Run(fmt.Sprintf("kill=%d,snap=%d", kill, snapAt), func(t *testing.T) {
			crashRecoveryTrial(t, strategy, evs, kill, snapAt, wantBody, wantActions)
		})
	}
}
