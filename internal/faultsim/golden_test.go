package faultsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

// The goldens below were written by the generators that still copied each
// bank through a Log to sort it. They pin every event, its order and the
// ground truth of each path.
const (
	generatorsGoldenSHA256 = "b7abdf573b1fc4dd8f01cc4d63b2f3b1a38a8c80c894a9c7db3e72aa2432ea58"
	physicalGoldenSHA256   = "08062df1ccfae2f500593e7a62227faab12d28a3b7cb8ce6f8b06765399546e1"
)

func truthDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGeneratorsGolden: one generator, one seed, every pattern through
// Generate, GenerateSampled and GenerateBenign in turn.
func TestGeneratorsGolden(t *testing.T) {
	g := newGen(t, 23)
	geo := hbm.DefaultGeometry
	rng := xrand.New(24)
	var out []any
	for i := 0; i < 60; i++ {
		bank := hbm.RandomBank(geo, rng)
		var bf *BankFault
		var err error
		if i%2 == 0 {
			bf, err = g.Generate(bank, AllPatterns[i/2%len(AllPatterns)])
		} else {
			bf, err = g.GenerateSampled(bank, DefaultPatternWeights())
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bf, g.GenerateBenign(hbm.RandomBank(geo, rng)))
	}
	if got := truthDigest(t, out); got != generatorsGoldenSHA256 {
		t.Errorf("generator output hashes to %s, want %s", got, generatorsGoldenSHA256)
	}
}

// TestGeneratePhysicalGolden pins the physical path, whose dedupe runs on
// the sorted bank, for every pattern.
func TestGeneratePhysicalGolden(t *testing.T) {
	g := newGen(t, 31)
	rng := xrand.New(32)
	var out []*BankFault
	for _, p := range AllPatterns {
		bf, err := g.GeneratePhysical(hbm.RandomBank(hbm.DefaultGeometry, rng), p, DefaultPhysicalConfig())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, bf)
	}
	if got := truthDigest(t, out); got != physicalGoldenSHA256 {
		t.Errorf("physical output hashes to %s, want %s", got, physicalGoldenSHA256)
	}
}
