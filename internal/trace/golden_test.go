package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// The goldens below were written by the generator that still re-sorted the
// whole fleet after concatenating its banks. They pin every event, its
// order and the ground truth, so a change to how the fleet log is assembled
// must reproduce it byte for byte.
var (
	generateGoldenSHA256 = map[string]string{
		"hbm2e":     "05395daf3aba91496b12edabe3e6a4e83681a27ecdc24e26a3e9981bfcb83e0d",
		"ddr5-dimm": "e3fd1584e4f94de3068a1c18b5a6e4d56c706872c848973aa95078ce6a36fbbb",
	}
	driftGoldenSHA256 = "185e4058bbcdb8f59eba0d27317383cb585e6765fd9ab973ba327a6af940e9a3"
)

// fleetDigest hashes a log's wire records, packed under p, followed by the
// JSON encoding of the rest of the ground truth.
func fleetDigest(t *testing.T, p *hbm.Profile, events []mcelog.Event, truth ...any) string {
	t.Helper()
	h := sha256.New()
	var rec []byte
	for _, ev := range events {
		rec = mcelog.RecordOf(p, ev).Append(rec[:0])
		h.Write(rec)
	}
	for _, v := range truth {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden: a fleet with sick-region companions and independent
// benign banks, under an HBM and a DIMM profile, is the pinned log and
// ground truth.
func TestGenerateGolden(t *testing.T) {
	for _, name := range []string{"hbm2e", "ddr5-dimm"} {
		t.Run(name, func(t *testing.T) {
			p, err := hbm.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := DefaultSpecFor(p)
			spec.UERBanks, spec.BenignBanks, spec.Seed = 80, 500, 11
			f, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			got := fleetDigest(t, p, f.Log().Events(), f.Faults, f.BenignBankKeys)
			if want := generateGoldenSHA256[name]; got != want {
				t.Errorf("fleet (%d events, %d faults, %d benign banks) hashes to %s, want %s",
					f.Log().Len(), len(f.Faults), len(f.BenignBankKeys), got, want)
			}
		})
	}
}

// TestGenerateDriftGolden pins a two-regime drift fleet.
func TestGenerateDriftGolden(t *testing.T) {
	fleet, err := GenerateDrift(driftSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := fleetDigest(t, hbm.HBM2E, nil, fleet.Faults, fleet.RegimeOf); got != driftGoldenSHA256 {
		t.Errorf("drift fleet (%d faults) hashes to %s, want %s", len(fleet.Faults), got, driftGoldenSHA256)
	}
}
