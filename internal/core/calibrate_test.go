package core

import (
	"bytes"
	"log/slog"
	"slices"
	"strings"
	"testing"

	"cordial/internal/faultsim"
	"cordial/internal/mltree"
	"cordial/internal/xrand"
)

// labelledBlobs is a two-feature dataset whose label-1 samples sit apart from
// its label-0 samples: n samples, the first ones of them positive.
func labelledBlobs(n, positives int) *mltree.Dataset {
	r := xrand.New(uint64(n*1000 + positives))
	ds := &mltree.Dataset{}
	for i := 0; i < n; i++ {
		label := 0
		if i < positives {
			label = 1
		}
		ds.Features = append(ds.Features, []float64{3*float64(label) + r.Normal(0, 1), r.Normal(0, 1)})
		ds.Labels = append(ds.Labels, label)
	}
	return ds
}

// TestCalibrationFoldWithoutAClass pins the degenerate calibration folds. A
// stratified 75/25 split rounds a class of two into the training side, so the
// held-out fold has no positive (or no negative) and every cutoff scores the
// same F1: the search used to return the grid's first point, 0.05 — a model
// sparing every block it is 5 % sure of. Such a fold now yields the default
// 0.5 and says that it ranked nothing; a fold with both classes is searched as
// before.
func TestCalibrationFoldWithoutAClass(t *testing.T) {
	cfg := DefaultConfig(RandomForest)
	cfg.Params = smallParams()
	for _, tc := range []struct {
		name         string
		n, positives int
		ranked       bool
	}{
		{"two positives", 200, 2, false},
		{"two negatives", 200, 198, false},
		{"no positives", 200, 0, false},
		{"both classes held out", 200, 40, true},
	} {
		thr, ranked, err := crossFitThreshold(cfg, labelledBlobs(tc.n, tc.positives))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ranked != tc.ranked || (!ranked && thr != 0.5) || thr < 0.05 || thr >= 0.9 {
			t.Errorf("%s: threshold %v, ranked %v; want ranked %v and the default 0.5 when not", tc.name, thr, ranked, tc.ranked)
		}
	}
}

// TestFitLogsUnrankedCalibrationOnce fits a pipeline on banks whose block
// instances are all negative (the aggregation banks that log no UER after
// their first decision points): the threshold stays 0.5 and Fit says so in one
// warning. A full-scale fit logs nothing.
func TestFitLogsUnrankedCalibrationOnce(t *testing.T) {
	var logged bytes.Buffer
	saved := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	t.Cleanup(func() { slog.SetDefault(saved) })

	fleet := testFleet(t, 2, 150)
	fitPipeline(t, RandomForest, fleet.Faults)
	if logged.Len() > 0 {
		t.Fatalf("a full-scale fit logged: %s", logged.String())
	}
	cfg := DefaultConfig(RandomForest)
	var banks []*faultsim.BankFault
	quiet := 0
	for _, bf := range fleet.Faults {
		if bf.Class().IsAggregation() {
			_, labels := bankInstances(t, bf, cfg.Block, cfg.Pattern.UERBudget)
			if len(labels) == 0 || slices.Contains(labels, 1) {
				continue
			}
			quiet++
		}
		banks = append(banks, bf)
	}
	if quiet == 0 {
		t.Fatal("no aggregation bank with only negative block instances")
	}
	p := fitPipeline(t, RandomForest, banks)
	if thr := p.Config().Threshold; thr != 0.5 {
		t.Errorf("threshold %v from a calibration fold without positives, want the default 0.5", thr)
	}
	if got := strings.Count(logged.String(), "calibration fold lacks a class"); got != 1 {
		t.Errorf("Fit logged the unranked calibration %d times, want once:\n%s", got, logged.String())
	}
}

// TestFitCodesEachDatasetOnce counts coding passes (sort and value-code a
// feature matrix) across the fits that calibrate on a split: a Pipeline.Fit of
// every backend codes the pattern and block datasets and nothing for the
// calibration refit or its held-out scoring; Calchas-lite codes its row
// dataset once.
func TestFitCodesEachDatasetOnce(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	for _, kind := range AllModelKinds {
		before := mltree.CodingPasses()
		fitPipeline(t, kind, fleet.Faults)
		if got := mltree.CodingPasses() - before; got != 2 {
			t.Errorf("%s: Pipeline.Fit coded %d matrices, want 2 (pattern and block dataset)", kind, got)
		}
	}

	cfg := DefaultConfig(RandomForest)
	cfg.Params = smallParams()
	blockDS, err := BuildBlockDataset(fleet.Faults, cfg.Block, cfg.Pattern.UERBudget)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := NewModel(cfg.Model, cfg.Params, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.Fit(blockDS); err != nil {
		t.Fatal(err)
	}
	before := mltree.CodingPasses()
	if _, ranked, err := crossFitThreshold(cfg, blockDS); err != nil || !ranked {
		t.Fatalf("crossFitThreshold: ranked %v, err %v", ranked, err)
	}
	if got := mltree.CodingPasses() - before; got != 0 {
		t.Errorf("crossFitThreshold coded %d matrices after the block model's fit, want 0", got)
	}

	before = mltree.CodingPasses()
	c := &Calchas{Params: smallParams(), Seed: 5}
	if err := c.Fit(fleet.Faults); err != nil {
		t.Fatal(err)
	}
	if got := mltree.CodingPasses() - before; got != 1 {
		t.Errorf("Calchas.Fit coded %d matrices, want 1", got)
	}
}
