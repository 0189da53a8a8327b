package cordial

import (
	"bytes"
	"testing"
)

// quickSpec returns a small fleet for facade-level testing.
func quickSpec(seed uint64) FleetSpec {
	spec := DefaultFleetSpec()
	spec.UERBanks = 90
	spec.BenignBanks = 100
	spec.Seed = seed
	return spec
}

func quickTrain(t testing.TB, kind ModelKind, banks []*BankFault) *Pipeline {
	t.Helper()
	cfg := DefaultConfig(kind)
	cfg.Params = ModelParams{Trees: 25, Depth: 8, Leaves: 15}
	p, err := TrainWithConfig(cfg, banks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFacadeEndToEnd(t *testing.T) {
	fleet, err := Simulate(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Log().Len() == 0 || len(fleet.Faults) != 90 {
		t.Fatalf("fleet: %d events, %d faults", fleet.Log().Len(), len(fleet.Faults))
	}
	train, test, err := Split(fleet.Faults, 2, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pipe := quickTrain(t, RandomForest, train)

	pat, err := EvaluatePattern(pipe, test)
	if err != nil {
		t.Fatal(err)
	}
	if pat.Weighted.F1 <= 0.5 {
		t.Fatalf("pattern weighted F1 = %.3f", pat.Weighted.F1)
	}

	res, err := Evaluate(pipe, test)
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvaluateStrategy(NeighborRowsBaseline(DefaultGeometry, pipe.Config().Block), test, pipe.Config().Block)
	if err != nil {
		t.Fatal(err)
	}
	if res.Block.F1 <= base.Block.F1 {
		t.Errorf("Cordial F1 %.3f not above baseline %.3f", res.Block.F1, base.Block.F1)
	}
	if res.ICR.Rate() <= base.ICR.Rate() {
		t.Errorf("Cordial ICR %.3f not above baseline %.3f", res.ICR.Rate(), base.ICR.Rate())
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	fleet, err := Simulate(quickSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := Split(fleet.Faults, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	pipe := quickTrain(t, LightGBM, train)
	var buf bytes.Buffer
	if err := pipe.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, LightGBM)
	if err != nil {
		t.Fatal(err)
	}
	for _, bf := range test[:5] {
		a, errA := pipe.ClassifyPattern(bf.Events)
		b, errB := loaded.ClassifyPattern(bf.Events)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatal("loaded pipeline disagrees")
		}
	}
}

func TestFacadeInRowBaseline(t *testing.T) {
	fleet, err := Simulate(quickSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	_, test, err := Split(fleet.Faults, 6, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultConfig(RandomForest).Block
	res, err := EvaluateStrategy(InRowBaseline(DefaultGeometry), test, spec)
	if err != nil {
		t.Fatal(err)
	}
	// In-row prediction is bounded by the ~4.4% non-sudden row ratio.
	if res.ICR.Rate() > 0.15 {
		t.Fatalf("in-row ICR %.3f too high", res.ICR.Rate())
	}
}

func TestFacadeStudyFunctions(t *testing.T) {
	fleet, err := Simulate(quickSpec(7))
	if err != nil {
		t.Fatal(err)
	}

	sudden := SuddenByLevel(fleet.Log())
	if len(sudden) != 7 {
		t.Fatalf("SuddenByLevel rows = %d", len(sudden))
	}
	rowStats := sudden[len(sudden)-1]
	if rowStats.Level != LevelRow {
		t.Fatalf("last level = %v", rowStats.Level)
	}
	if r := rowStats.PredictableRatio(); r > 0.12 {
		t.Fatalf("row predictable ratio = %.3f", r)
	}

	summary := SummaryByLevel(fleet.Log())
	if len(summary) != 7 {
		t.Fatalf("SummaryByLevel rows = %d", len(summary))
	}
	for _, s := range summary {
		if s.WithCE <= 0 || s.Total < s.WithCE {
			t.Fatalf("summary row %+v malformed", s)
		}
	}

	points, err := LocalityChiSquare(fleet.Log(), DefaultGeometry.RowsPerBank, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("locality points = %d", len(points))
	}

	dist := PatternDistribution(fleet.Faults)
	total := 0.0
	for _, s := range dist {
		total += s.Share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("pattern shares sum to %g", total)
	}
}

func TestFacadeCalchasBaseline(t *testing.T) {
	fleet, err := Simulate(quickSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := Split(fleet.Faults, 9, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	calchas, err := CalchasBaseline(train, ModelParams{Trees: 15, Depth: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultConfig(RandomForest).Block
	res, err := EvaluateStrategy(calchas, test, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ICR.Rate() > 0.15 {
		t.Fatalf("Calchas ICR %.3f above in-row bound", res.ICR.Rate())
	}
	if _, err := CalchasBaseline(nil, ModelParams{}, 1); err == nil {
		t.Fatal("empty training accepted")
	}
}

func TestFacadeBankOfAndLevels(t *testing.T) {
	a := Address{Node: 3, Row: 100, Column: 5}
	b := BankOf(a)
	if b != (BankAddress{Node: 3}) || b.String() != "n3.u0.h0.s0.c0.p0.g0.b0.r0.col0" {
		t.Fatalf("BankOf = %+v", b)
	}
	if LevelNPU.String() != "NPU" || LevelRow.String() != "Row" {
		t.Fatal("level strings wrong")
	}
}

func TestFacadeTrainRejectsEmpty(t *testing.T) {
	if _, err := Train(RandomForest, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	bad := DefaultConfig(RandomForest)
	bad.Threshold = -1
	if _, err := TrainWithConfig(bad, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}
