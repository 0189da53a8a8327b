package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// fleetGoldenSHA256 was written by the fleet generator that still re-sorted
// the concatenated banks; it pins the planned event stream's wire records.
const fleetGoldenSHA256 = "d0e24b71bae825ccbcc5171765606da7f69c14f651a44590596d20448b9be0af"

func TestGenerateFleetGolden(t *testing.T) {
	sc := planScenario(t, 42)
	sc.FleetGen.TotalBanks = 400
	plan, err := BuildPlan(sc, hbm.HBM2E)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var rec []byte
	for _, ev := range plan.Fleet.Events {
		rec = mcelog.AppendWireRecord(rec[:0], ev)
		h.Write(rec)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fleetGoldenSHA256 {
		t.Errorf("fleet of %d events hashes to %s, want %s", len(plan.Fleet.Events), got, fleetGoldenSHA256)
	}
}
