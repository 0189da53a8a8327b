package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/sparing"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// testFleet generates a fleet once per test binary run and caches splits.
var fleetCache = map[uint64]*trace.Fleet{}

func testFleet(t testing.TB, seed uint64, uerBanks int) *trace.Fleet {
	t.Helper()
	key := seed<<16 | uint64(uerBanks)
	if f, ok := fleetCache[key]; ok {
		return f
	}
	spec := trace.DefaultSpec(hbm.DefaultGeometry)
	spec.UERBanks = uerBanks
	spec.BenignBanks = 0 // prediction evaluation only needs faulty banks
	spec.Seed = seed
	f, err := trace.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleetCache[key] = f
	return f
}

// smallParams keeps model fitting fast in tests.
func smallParams() ModelParams {
	return ModelParams{Trees: 30, Depth: 8, Leaves: 15}
}

func fitPipeline(t testing.TB, kind ModelKind, train []*faultsim.BankFault) *Pipeline {
	t.Helper()
	cfg := DefaultConfig(kind)
	cfg.Params = smallParams()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Model: ModelKind(99)}); err == nil {
		t.Error("bad model kind accepted")
	}
	cfg := DefaultConfig(RandomForest)
	cfg.Threshold = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("bad threshold accepted")
	}
	cfg = DefaultConfig(RandomForest)
	cfg.Block = features.BlockSpec{WindowRadius: 64, BlockSize: 7}
	if _, err := New(cfg); err == nil {
		t.Error("bad block spec accepted")
	}
}

func TestModelKindStrings(t *testing.T) {
	if RandomForest.String() != "Random Forest" || RandomForest.ShortName() != "RF" {
		t.Error("RF names wrong")
	}
	if XGBoost.ShortName() != "XGB" || LightGBM.ShortName() != "LGBM" {
		t.Error("boosting names wrong")
	}
}

func TestNewModelAllKinds(t *testing.T) {
	for _, kind := range AllModelKinds {
		m, err := NewModel(kind, ModelParams{}, 1)
		if err != nil || m == nil {
			t.Fatalf("NewModel(%v): %v", kind, err)
		}
	}
	if _, err := NewModel(ModelKind(42), ModelParams{}, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildPatternDataset(t *testing.T) {
	fleet := testFleet(t, 1, 120)
	ds, err := BuildPatternDataset(fleet.Faults, features.DefaultPatternConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != len(fleet.Faults) {
		t.Fatalf("pattern dataset has %d samples for %d banks", ds.NumSamples(), len(fleet.Faults))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Labels are the three classifier classes.
	for _, l := range ds.Labels {
		c := faultsim.Class(l)
		if c != faultsim.ClassSingleRow && c != faultsim.ClassDoubleRow && c != faultsim.ClassScattered {
			t.Fatalf("unexpected label %d", l)
		}
	}
	if _, err := BuildPatternDataset(nil, features.DefaultPatternConfig(), false); err == nil {
		t.Fatal("empty bank list accepted")
	}
}

func TestBuildBlockDataset(t *testing.T) {
	fleet := testFleet(t, 1, 120)
	spec := features.DefaultBlockSpec()
	ds, err := BuildBlockDataset(fleet.Faults, spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sample count is a multiple of the block count.
	if ds.NumSamples()%spec.NumBlocks() != 0 {
		t.Fatalf("%d block samples not a multiple of %d", ds.NumSamples(), spec.NumBlocks())
	}
	// Both labels occur and positives are the minority.
	pos, neg := 0, 0
	for _, l := range ds.Labels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate block labels: %d positive, %d negative", pos, neg)
	}
	if pos >= neg {
		t.Fatalf("expected positives to be the minority: %d vs %d", pos, neg)
	}
}

// TestBuildBlockDatasetGolden pins the rows BuildBlockDataset's dataset reads
// back from its codes, and its labels, to SHA-256s of the float rows and labels
// it built at the commit before the block dataset was coded as it was made
// (values little-endian row by row, each row's label after it as a uint64).
func TestBuildBlockDatasetGolden(t *testing.T) {
	for _, c := range []struct {
		seed  uint64
		banks int
		rows  int
		sha   string
	}{
		{1, 120, 6560, "959cfe34131b259e5d30efc6281f3af7c2c1270f4bc103fceb1379923a4c3200"},
		{17, 40, 1648, "89cb8ea13bfa7312ac3eeb13645135d03a914d22a09dd08b9073630a4b5988c2"},
	} {
		ds, err := BuildBlockDataset(testFleet(t, c.seed, c.banks).Faults, features.DefaultBlockSpec(), 3)
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		for i, row := range ds.Features {
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(ds.Labels[i]))
		}
		if got := sha256Hex(b); len(ds.Features) != c.rows || got != c.sha {
			t.Errorf("seed %d, %d banks: %d rows, SHA-256 %s; want %d rows, %s", c.seed, c.banks, len(ds.Features), got, c.rows, c.sha)
		}
	}
}

func TestSplitBanksStratified(t *testing.T) {
	fleet := testFleet(t, 1, 120)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(7), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != len(fleet.Faults) {
		t.Fatal("split lost banks")
	}
	countClass := func(banks []*faultsim.BankFault, c faultsim.Class) int {
		n := 0
		for _, b := range banks {
			if b.Class() == c {
				n++
			}
		}
		return n
	}
	for _, c := range faultsim.AllClasses {
		tr, te := countClass(train, c), countClass(test, c)
		if tr+te > 3 && (tr == 0 || te == 0) {
			t.Errorf("class %v entirely on one side (%d/%d)", c, tr, te)
		}
	}
	if _, _, err := SplitBanks(fleet.Faults, xrand.New(1), 0); err == nil {
		t.Error("fraction 0 accepted")
	}
}

func TestPipelineFitAndClassify(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	if !p.Fitted() {
		t.Fatal("pipeline not fitted after Fit")
	}
	eval, err := EvaluatePattern(p, test)
	if err != nil {
		t.Fatal(err)
	}
	// The classification task is learnable: weighted F1 well above chance.
	if eval.Weighted.F1 < 0.6 {
		t.Fatalf("RF pattern weighted F1 = %.3f", eval.Weighted.F1)
	}
	// Single-row clustering is effectively classified (paper Table III:
	// the easiest class at ~0.95 F1). Relative ordering against the rare
	// classes is asserted at experiment scale, where their supports are
	// large enough to be stable.
	if single := eval.PerClass[faultsim.ClassSingleRow]; single.F1 < 0.85 {
		t.Errorf("single-row F1 = %.3f, want ≥0.85", single.F1)
	}
}

func TestPredictBlocksShape(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	var agg *faultsim.BankFault
	for _, bf := range test {
		if bf.Class() == faultsim.ClassSingleRow && len(bf.UERRows) >= 4 {
			agg = bf
			break
		}
	}
	if agg == nil {
		t.Skip("no single-row test bank with ≥4 UERs")
	}
	anchor := agg.UERRows[2]
	now := agg.UERTimes[2]
	probs, err := p.PredictBlocks(visibleEvents(agg.Events, now), anchor, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 16 {
		t.Fatalf("got %d block probabilities", len(probs))
	}
	for b, prob := range probs {
		if prob < 0 || prob > 1 {
			t.Fatalf("block %d probability %g", b, prob)
		}
	}
	rows := p.PredictRows(probs, anchor, hbm.DefaultGeometry)
	for _, r := range rows {
		if r < 0 || r >= hbm.DefaultGeometry.RowsPerBank {
			t.Fatalf("predicted row %d out of bank", r)
		}
	}
}

func TestPipelineSaveLoadModels(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, LightGBM, train)
	var buf bytes.Buffer
	if err := p.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := New(p.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.LoadModels(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bf := range test[:10] {
		a, errA := p.ClassifyPattern(bf.Events)
		b, errB := clone.ClassifyPattern(bf.Events)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatal("loaded pipeline disagrees with original")
		}
	}
}

func TestUnfittedPipelineErrors(t *testing.T) {
	p, err := New(DefaultConfig(RandomForest))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ClassifyPattern(nil); err == nil {
		t.Error("unfitted ClassifyPattern succeeded")
	}
	if _, err := p.PredictBlocks(nil, 0, time.Time{}); err == nil {
		t.Error("unfitted PredictBlocks succeeded")
	}
	if err := p.SaveModels(&bytes.Buffer{}); err == nil {
		t.Error("unfitted SaveModels succeeded")
	}
	if _, err := EvaluatePattern(p, nil); err == nil {
		t.Error("unfitted EvaluatePattern succeeded")
	}
}

func TestEndToEndCordialBeatsNeighborRows(t *testing.T) {
	fleet := testFleet(t, 5, 200)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(9), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	geo := hbm.DefaultGeometry
	spec := p.Config().Block
	budget := sparing.DefaultBudget()

	cordial, err := EvaluatePrediction(&CordialStrategy{Pipeline: p, Geometry: geo}, test, spec, budget)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := EvaluatePrediction(&NeighborRowsStrategy{Geometry: geo, Block: spec}, test, spec, budget)
	if err != nil {
		t.Fatal(err)
	}

	// The paper's headline result (Table IV): Cordial beats the
	// neighbor-rows baseline on block F1 and on ICR.
	if cordial.Block.F1 <= baseline.Block.F1 {
		t.Errorf("Cordial F1 %.3f not above baseline %.3f", cordial.Block.F1, baseline.Block.F1)
	}
	if cordial.ICR.Rate() <= baseline.ICR.Rate() {
		t.Errorf("Cordial ICR %.3f not above baseline %.3f", cordial.ICR.Rate(), baseline.ICR.Rate())
	}
	// Both must actually make block predictions.
	if cordial.BlockOutcomes.Total() == 0 || baseline.BlockOutcomes.Total() == 0 {
		t.Fatal("no block predictions recorded")
	}
	// Cordial must actually bank-spare some scattered banks.
	if cordial.Usage.BankSpares == 0 {
		t.Error("Cordial never bank-spared")
	}
}

func TestInRowBaselineBoundedBySuddenRatio(t *testing.T) {
	fleet := testFleet(t, 6, 150)
	_, test, err := SplitBanks(fleet.Faults, xrand.New(2), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	inrow, err := EvaluatePrediction(&InRowStrategy{Geometry: hbm.DefaultGeometry},
		test, features.DefaultBlockSpec(), sparing.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	// In-row coverage cannot exceed the non-sudden row ratio (~4.4%) by
	// much — the paper's motivating limitation. Allow slack for noise.
	if rate := inrow.ICR.Rate(); rate > 0.12 {
		t.Fatalf("in-row ICR %.3f unexpectedly high", rate)
	}
	if inrow.BlockOutcomes.Total() != 0 {
		t.Error("in-row baseline should make no block predictions")
	}
}

func TestEvaluatePredictionICRDenominatorCountsAllRows(t *testing.T) {
	fleet := testFleet(t, 6, 150)
	_, test, err := SplitBanks(fleet.Faults, xrand.New(2), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, bf := range test {
		want += len(bf.UERRows)
	}
	res, err := EvaluatePrediction(&NeighborRowsStrategy{Geometry: hbm.DefaultGeometry, Block: features.DefaultBlockSpec()},
		test, features.DefaultBlockSpec(), sparing.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if res.ICR.Total != want {
		t.Fatalf("ICR denominator %d, want %d", res.ICR.Total, want)
	}
}

func TestPipelinePredictConcurrent(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	// A fitted pipeline's predict methods must be safe for concurrent use.
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				bf := test[(g*20+i)%len(test)]
				if _, err := p.ClassifyPattern(bf.Events); err != nil {
					done <- err
					return
				}
				anchor := bf.UERRows[len(bf.UERRows)-1]
				now := bf.UERTimes[len(bf.UERTimes)-1]
				if _, err := p.PredictBlocks(bf.Events, anchor, now); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineImportance(t *testing.T) {
	fleet := testFleet(t, 2, 150)
	train, _, err := SplitBanks(fleet.Faults, xrand.New(3), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	pat, err := p.PatternImportance()
	if err != nil {
		t.Fatal(err)
	}
	blk, err := p.BlockImportance()
	if err != nil {
		t.Fatal(err)
	}
	if len(pat) == 0 || len(blk) == 0 {
		t.Fatal("empty importance lists")
	}
	if pat[0].Name == "" || blk[0].Name == "" {
		t.Fatal("importances missing names")
	}
	// Descending order.
	for i := 1; i < len(pat); i++ {
		if pat[i].Score > pat[i-1].Score {
			t.Fatal("pattern importances not sorted")
		}
	}
	// Unfitted pipeline errors.
	unfitted, err := New(DefaultConfig(RandomForest))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unfitted.PatternImportance(); err == nil {
		t.Error("unfitted PatternImportance succeeded")
	}
	if _, err := unfitted.BlockImportance(); err == nil {
		t.Error("unfitted BlockImportance succeeded")
	}
}

func TestCoverageMonotoneInBudget(t *testing.T) {
	// Property: more spare rows per bank can never reduce isolation
	// coverage, for any strategy.
	fleet := testFleet(t, 5, 200)
	_, test, err := SplitBanks(fleet.Faults, xrand.New(9), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	spec := features.DefaultBlockSpec()
	strategy := &NeighborRowsStrategy{Geometry: hbm.DefaultGeometry, Block: spec}
	prev := -1.0
	for _, rows := range []int{1, 4, 16, 64} {
		res, err := EvaluatePrediction(strategy, test, spec, sparing.Budget{
			RowSparesPerBank:     rows,
			BankSparesPerChannel: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if icr := res.ICR.Rate(); icr < prev {
			t.Fatalf("ICR dropped from %.4f to %.4f when budget rose to %d", prev, icr, rows)
		} else {
			prev = icr
		}
	}
}

func TestBlockAUCAvailableForCordial(t *testing.T) {
	fleet := testFleet(t, 5, 200)
	train, test, err := SplitBanks(fleet.Faults, xrand.New(9), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	p := fitPipeline(t, RandomForest, train)
	res, err := EvaluatePrediction(&CordialStrategy{Pipeline: p, Geometry: hbm.DefaultGeometry},
		test, p.Config().Block, sparing.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	auc, ok := res.BlockAUC()
	if !ok {
		t.Fatal("Cordial produced no block scores")
	}
	// The model ranks far better than chance.
	if auc < 0.7 {
		t.Fatalf("block AUC = %.3f", auc)
	}
	// The baseline has no probabilities → no AUC.
	base, err := EvaluatePrediction(&NeighborRowsStrategy{Geometry: hbm.DefaultGeometry, Block: p.Config().Block},
		test, p.Config().Block, sparing.DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := base.BlockAUC(); ok {
		t.Fatal("baseline unexpectedly produced scores")
	}
}
