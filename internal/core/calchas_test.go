package core

import (
	"testing"

	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/sparing"
	"cordial/internal/xrand"
)

func TestCalchasFitAndEvaluate(t *testing.T) {
	fleet := testFleet(t, 6, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(2), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c := &Calchas{Params: smallParams(), Seed: 1}
	if c.model != nil {
		t.Fatal("unfitted Calchas claims fitted")
	}
	if err := c.Fit(train); err != nil {
		t.Fatal(err)
	}
	if c.model == nil {
		t.Fatal("fitted Calchas claims unfitted")
	}

	spec := features.DefaultBlockSpec()
	budget := sparing.DefaultBudget()
	res, err := EvaluatePrediction(c, test, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	// A learned in-row method is still bounded by the non-sudden ratio:
	// coverage stays in single digits.
	if rate := res.ICR.Rate(); rate > 0.12 {
		t.Fatalf("Calchas-lite ICR %.3f unexpectedly high", rate)
	}
	if res.BlockOutcomes.Total() != 0 {
		t.Error("in-row method should make no block predictions")
	}

	// It must not isolate more rows than the naive isolate-every-precursor
	// policy (it is a filtered version of it).
	naive, err := EvaluatePrediction(&InRowStrategy{Geometry: hbm.DefaultGeometry}, test, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.Usage.RowSpares > naive.Usage.RowSpares {
		t.Fatalf("Calchas-lite spared %d rows, naive in-row %d", res.Usage.RowSpares, naive.Usage.RowSpares)
	}
}

func TestCalchasRejectsDegenerateTraining(t *testing.T) {
	c := &Calchas{Params: smallParams()}
	if err := c.Fit(nil); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestRowVectorFiniteOnFleet(t *testing.T) {
	fleet := testFleet(t, 6, 150)
	for _, bf := range fleet.Faults[:30] {
		vecs, labels := rowInstances(bf)
		if len(vecs) != len(labels) {
			t.Fatal("instance/label length mismatch")
		}
		for _, vec := range vecs {
			if len(vec) != len(features.RowFeatureNames()) {
				t.Fatalf("row vector has %d values, want %d", len(vec), len(features.RowFeatureNames()))
			}
		}
	}
}
