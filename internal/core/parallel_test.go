package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
// fit of each backend (trace seed 17, 40 failing banks, Config.Seed 17), the
// same at Parallelism 1 and 8: a model file does not record the trainer's
// core count. normalised is the hash of the file with the keys learner
// options used to write removed (normaliseModels), generated from the files
// the commit before those options became constants wrote; raw is the file as
// written now. A trainer that grows a different tree anywhere — another
// split, another tie-break, another RNG draw — changes both. XGBoost's two
// were written when the boosters moved to the coded matrix: its gradient
// sums per value code add in another order than its sums along presorted
// float columns did.
var savedModelsGolden = map[ModelKind]struct{ normalised, raw string }{
	RandomForest: {
		normalised: "e3a6385b8627bb48e1b408050d2d4711a1e87392ffd1f9a23cdb147444f780f2",
		raw:        "a2557fea040b7f89d2e60d598632ddd95e99e0333bcf6a011cc276bb9b12e55c",
	},
	XGBoost: {
		normalised: "394a63e4fdaa3957cf269973d3d73684d16aeacb1b6f096a3bbaebbe0f9deecb",
		raw:        "ecc0b0d2374175bdaa2387cfbbeea1628d67706d5df34f5a7ba0903a2e32b279",
	},
	LightGBM: {
		normalised: "52864d4244524e39f80128f5671f14ca61d81d4ca5903fc2cb9f48d332489cca",
		raw:        "3d6d567271032b55cd1dc8a838b34806b5f631cbff4f8b6f626e00815dfd5539",
	},
}

// removedModelKeys are the keys a model file no longer carries: the learner
// options that became constants, the forest's out-of-bag score, and the core
// count (which the loading process chooses for itself).
var removedModelKeys = map[string]bool{
	"MinSamplesSplit": true, "MinSamplesLeaf": true, "Criterion": true, "BootstrapRatio": true,
	"LearningRate": true, "Lambda": true, "Gamma": true, "MinChildWeight": true,
	"PositiveWeight": true, "EarlyStopRounds": true, "MaxBins": true, "TopRate": true,
	"OtherRate": true, "oob": true, "Parallelism": true,
}

// normaliseModels re-encodes every JSON value of a models file with the
// removed keys deleted at any depth, numbers kept as written.
func normaliseModels(t *testing.T, file []byte) []byte {
	t.Helper()
	var drop func(v any)
	drop = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				if removedModelKeys[k] {
					delete(v, k)
				} else {
					drop(c)
				}
			}
		case []any:
			for _, c := range v {
				drop(c)
			}
		}
	}
	var out bytes.Buffer
	dec := json.NewDecoder(bytes.NewReader(file))
	dec.UseNumber()
	for dec.More() {
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		drop(v)
		line, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(line, '\n'))
	}
	return out.Bytes()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestSaveModelsGolden(t *testing.T) {
	fleet := testFleet(t, 17, 40)
	for _, kind := range AllModelKinds {
		want := savedModelsGolden[kind]
		for _, parallelism := range []int{1, 8} {
			cfg := DefaultConfig(kind)
			cfg.Params.Parallelism = parallelism
			cfg.Seed = 17
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Fit(fleet.Faults); err != nil {
				t.Fatal(err)
			}
			var file bytes.Buffer
			if err := p.SaveModels(&file); err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(normaliseModels(t, file.Bytes())); got != want.normalised {
				t.Errorf("%s, Parallelism %d: normalised SaveModels SHA-256 = %s, want %s", kind, parallelism, got, want.normalised)
			}
			if got := sha256Hex(file.Bytes()); got != want.raw {
				t.Errorf("%s, Parallelism %d: SaveModels SHA-256 = %s, want %s", kind, parallelism, got, want.raw)
			}
		}
	}
}
