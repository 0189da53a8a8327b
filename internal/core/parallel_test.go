package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"cordial/internal/xrand"
)

// TestPipelineParallelismEquivalence asserts the end-to-end determinism
// contract at the pipeline level: fitting with Parallelism=1 and
// Parallelism=8 yields the same calibrated threshold, the same pattern
// classifications, and bit-identical block probabilities for every backend.
func TestPipelineParallelismEquivalence(t *testing.T) {
	fleet := testFleet(t, 5, 50)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(5), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllModelKinds {
		fit := func(parallelism int) *Pipeline {
			cfg := DefaultConfig(kind)
			cfg.Params = smallParams()
			cfg.Params.Parallelism = parallelism
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Fit(train); err != nil {
				t.Fatal(err)
			}
			return p
		}
		serial := fit(1)
		parallel := fit(8)
		if serial.Config().Threshold != parallel.Config().Threshold {
			t.Fatalf("%s: calibrated threshold differs: %g vs %g",
				kind, serial.Config().Threshold, parallel.Config().Threshold)
		}
		now := time.Time{}
		for _, bf := range test {
			cs, errS := serial.ClassifyPattern(bf.Events)
			cp, errP := parallel.ClassifyPattern(bf.Events)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("%s: classify error mismatch: %v vs %v", kind, errS, errP)
			}
			if errS != nil {
				continue
			}
			if cs != cp {
				t.Fatalf("%s: pattern class differs: %v vs %v", kind, cs, cp)
			}
			if len(bf.UERRows) == 0 {
				continue
			}
			anchor := bf.UERRows[len(bf.UERRows)-1]
			if !now.Before(bf.UERTimes[len(bf.UERTimes)-1]) {
				now = bf.UERTimes[len(bf.UERTimes)-1]
			}
			ps, errS := serial.PredictBlocks(bf.Events, anchor, now)
			pp, errP := parallel.PredictBlocks(bf.Events, anchor, now)
			if (errS == nil) != (errP == nil) {
				t.Fatalf("%s: predict error mismatch: %v vs %v", kind, errS, errP)
			}
			if errS != nil {
				continue
			}
			for b := range ps {
				if ps[b] != pp[b] {
					t.Fatalf("%s: block %d probability differs: %g vs %g", kind, b, ps[b], pp[b])
				}
			}
		}
	}
}

// savedModelsGolden pins the bytes Pipeline.SaveModels writes for one seeded
// default random-forest fit (trace seed 17, 40 failing banks, Config.Seed 17)
// at Parallelism 1 and 8. The hashes were generated at the commit before the
// forest trainer was rewritten over value codes (PR 17); the two differ only
// because ForestConfig.Parallelism is part of the saved payload. A trainer
// that grows a different tree anywhere — another split, another tie-break,
// another RNG draw — changes them.
var savedModelsGolden = map[int]string{
	1: "76775ab53c16d5e8f252c5ce15b638d4a8d480bbfedbce6133c2a9e2289cf369",
	8: "9aebf6ff3bb8127215ae5dcaf272d9f803905552b36cf547940052818521567c",
}

func TestSaveModelsGolden(t *testing.T) {
	fleet := testFleet(t, 17, 40)
	for _, parallelism := range []int{1, 8} {
		cfg := DefaultConfig(RandomForest)
		cfg.Params.Parallelism = parallelism
		cfg.Seed = 17
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Fit(fleet.Faults); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := p.SaveModels(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != savedModelsGolden[parallelism] {
			t.Errorf("Parallelism %d: SaveModels SHA-256 = %s, want %s", parallelism, got, savedModelsGolden[parallelism])
		}
	}
}
