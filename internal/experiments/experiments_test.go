package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
)

// tableIVRow returns the named row of t4.
func tableIVRow(t *testing.T, t4 *TableIV, name string) TableIVRow {
	t.Helper()
	i := slices.IndexFunc(t4.Rows, func(r TableIVRow) bool { return r.Name == name })
	if i < 0 {
		t.Fatalf("Table IV has no %q row", name)
	}
	return t4.Rows[i]
}

func TestParamsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
	p := Quick()
	p.TrainFrac = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("bad train fraction accepted")
	}
}

func TestTableIShape(t *testing.T) {
	res, err := RunTableI(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(hbm.HBM2E.TableLevels) {
		t.Fatalf("TableI has %d rows", len(res.Rows))
	}
	// The paper's headline: >95% of row-level UERs are sudden.
	if got := res.RowLevelSuddenRatio(); got < 0.9 {
		t.Fatalf("row-level sudden ratio = %.3f", got)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Micro-level", "NPU", "Row", "Predictable Ratio"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTableIIShape(t *testing.T) {
	res, err := RunTableII(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(hbm.HBM2E.TableLevels) {
		t.Fatalf("TableII has %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.WithCE <= r.WithUER {
			t.Errorf("%v: CE entities (%d) not above UER entities (%d)", r.Level, r.WithCE, r.WithUER)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total Count") {
		t.Error("render missing header")
	}
}

func TestEvaluationTablesShape(t *testing.T) {
	t3, t4, err := RunEvaluation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 3 {
		t.Fatalf("TableIII has %d rows", len(t3.Rows))
	}
	for _, row := range t3.Rows {
		if row.Weighted.F1 <= 0.5 {
			t.Errorf("%v weighted F1 = %.3f", row.Model, row.Weighted.F1)
		}
		// Single-row clustering is the easiest class for every backend
		// (allowing seed-level slack where scores saturate).
		single := row.PerClass[faultsim.ClassSingleRow]
		for _, other := range []faultsim.Class{faultsim.ClassDoubleRow, faultsim.ClassScattered} {
			if single.F1 < row.PerClass[other].F1-0.05 {
				t.Errorf("%v: single-row F1 %.3f below %v %.3f", row.Model, single.F1, other, row.PerClass[other].F1)
			}
		}
	}

	// Table IV: 3 baselines + 3 Cordial variants, Cordial wins.
	if len(t4.Rows) != 6 {
		t.Fatalf("TableIV has %d rows", len(t4.Rows))
	}
	base := tableIVRow(t, t4, "Neighbor Rows")
	for _, kind := range core.AllModelKinds {
		row := tableIVRow(t, t4, "Cordial-"+kind.ShortName())
		if row.F1 <= base.F1 {
			t.Errorf("Cordial-%s F1 %.3f not above baseline %.3f", kind.ShortName(), row.F1, base.F1)
		}
		if row.ICR <= base.ICR {
			t.Errorf("Cordial-%s ICR %.3f not above baseline %.3f", kind.ShortName(), row.ICR, base.ICR)
		}
	}
	inrow := tableIVRow(t, t4, "In-row")
	// In-row coverage is bounded by the non-sudden ratio; at full scale it
	// sits clearly below the neighbor-rows baseline, at quick scale allow a
	// small margin of noise.
	if inrow.ICR > base.ICR+0.03 {
		t.Errorf("in-row ICR %.3f well above neighbor-rows %.3f", inrow.ICR, base.ICR)
	}
	if inrow.ICR > 0.12 {
		t.Errorf("in-row ICR %.3f above the sudden-ratio bound", inrow.ICR)
	}
	calchas := tableIVRow(t, t4, "Calchas-lite")
	// A learned in-row method is still bounded by the non-sudden ratio.
	if calchas.ICR > 0.15 {
		t.Errorf("Calchas-lite ICR %.3f unexpectedly high", calchas.ICR)
	}

	var buf bytes.Buffer
	if err := t3.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Weighted Average") {
		t.Error("TableIII render missing weighted average")
	}
	buf.Reset()
	if err := t4.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Cordial-RF") {
		t.Error("TableIV render missing Cordial-RF")
	}
}

func TestFig3aShape(t *testing.T) {
	res, err := RunFig3a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Examples) != len(faultsim.AllPatterns) {
		t.Fatalf("Fig3a has %d patterns", len(res.Examples))
	}
	for p, points := range res.Examples {
		if len(points) == 0 {
			t.Errorf("pattern %v has no points", p)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "pattern,row,column,class") {
		t.Error("Fig3a render missing CSV header")
	}
}

func TestFig3bShape(t *testing.T) {
	res, err := RunFig3b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Aggregation patterns dominate (paper: 78.1%).
	if agg := res.AggregationShare(); agg < 0.6 || agg > 0.9 {
		t.Fatalf("aggregation share = %.3f", agg)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "single-row clustering") {
		t.Error("Fig3b render missing pattern name")
	}
}

func TestFig4PeaksAt128(t *testing.T) {
	res, err := RunFig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("Fig4 has %d points", len(res.Points))
	}
	if peak := res.Peak(); peak != 128 {
		t.Fatalf("Fig4 peak at %d, want 128", peak)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Chi-Squared") {
		t.Error("Fig4 render missing header")
	}
}

func TestAblationUERBudget(t *testing.T) {
	res, err := RunAblationUERBudget(Quick(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("ablation has %d rows", len(res.Rows))
	}
	// Three UERs classify patterns better than one (the paper's §IV-C
	// rationale: one UER cannot separate aggregation from scattered).
	if res.Rows[1].PatternF1 <= res.Rows[0].PatternF1 {
		t.Errorf("budget-3 pattern F1 %.3f not above budget-1 %.3f",
			res.Rows[1].PatternF1, res.Rows[0].PatternF1)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "first 3 UERs") {
		t.Error("ablation render missing label")
	}
}

func TestAblationBlockGeometry(t *testing.T) {
	res, err := RunAblationBlockGeometry(Quick(), []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("ablation has %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.BlockF1 <= 0 {
			t.Errorf("%s: block F1 = %.3f", r.Label, r.BlockF1)
		}
	}
}

func TestAblationWindow(t *testing.T) {
	res, err := RunAblationWindow(Quick(), []int{32, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("ablation has %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.ICR <= 0 {
			t.Errorf("%s: ICR = %.3f", r.Label, r.ICR)
		}
	}
}

func TestAblationFeatures(t *testing.T) {
	res, err := RunAblationFeatures(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("ablation has %d rows", len(res.Rows))
	}
	all := res.Rows[3]
	if all.Label != "all families" {
		t.Fatalf("unexpected row order: %v", res.Rows)
	}
	// All families together must not lose to any single family by a
	// meaningful margin.
	for _, r := range res.Rows[:3] {
		if all.PatternF1 < r.PatternF1-0.05 {
			t.Errorf("all-families F1 %.3f below %s %.3f", all.PatternF1, r.Label, r.PatternF1)
		}
	}
}

func TestFamilyOf(t *testing.T) {
	tests := map[string]FeatureFamily{
		"ce_row_min":                 FamilySpatial,
		"uer_row_span":               FamilySpatial,
		"ce_dt_min_h":                FamilyTemporal,
		"first_error_to_first_uer_h": FamilyTemporal,
		"ce_count_before_first_uer":  FamilyCount,
		"ce_rate_before_first_uer":   FamilyCount,
	}
	for name, want := range tests {
		if got := familyOf(name); got != want {
			t.Errorf("familyOf(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestStability(t *testing.T) {
	p := Quick()
	p.Spec.UERBanks = 60
	p.Spec.BenignBanks = 0
	res, err := RunStability(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 3 || len(res.Rows) != 6 {
		t.Fatalf("stability = %+v", res)
	}
	i := slices.IndexFunc(res.Rows, func(r StabilityRow) bool { return r.Metric == "Cordial F1 advantage" })
	if i < 0 {
		t.Fatal("advantage row missing")
	}
	adv := res.Rows[i]
	// Cordial beats the baseline on average across seeds.
	if adv.Mean <= 0 {
		t.Fatalf("mean F1 advantage = %.3f", adv.Mean)
	}
	for _, r := range res.Rows {
		if r.Std < 0 || r.Min > r.Max || r.Mean < r.Min || r.Mean > r.Max {
			t.Fatalf("malformed row %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Cordial-RF ICR") {
		t.Error("render missing metric")
	}
	if _, err := RunStability(p, 1); err == nil {
		t.Error("single seed accepted")
	}
}

func TestGeneratorValidation(t *testing.T) {
	res, err := RunGeneratorValidation(Quick(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fast.Banks != 40 || res.Physical.Banks != 40 {
		t.Fatalf("bank counts %d/%d", res.Fast.Banks, res.Physical.Banks)
	}
	// The two independent generation paths must agree on the structural
	// statistics the learning task depends on.
	if !res.Agree(0.15) {
		t.Fatalf("generator paths disagree: fast=%+v physical=%+v", res.Fast, res.Physical)
	}
	// Physical mode surfaces UEOs through scrubbing.
	if res.Physical.UEOShare <= 0 {
		t.Fatal("physical mode produced no UEOs")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Physical path") {
		t.Error("render missing column")
	}
	if _, err := RunGeneratorValidation(Quick(), 2); err == nil {
		t.Error("tiny bank count accepted")
	}
}
