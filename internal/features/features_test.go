package features

import (
	"math"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

var t0 = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

func ev(hoursIn float64, row int, class ecc.Class) mcelog.Event {
	return mcelog.Event{
		Time:  t0.Add(time.Duration(hoursIn * float64(time.Hour))),
		Addr:  hbm.Address{Row: row},
		Class: class,
	}
}

// replayed returns the BankState a session holds after events: the path
// every program takes to a feature vector.
func replayed(events []mcelog.Event, cfg PatternConfig, spec BlockSpec) (*BankState, error) {
	st, err := NewBankState(cfg, spec)
	if err == nil {
		for _, e := range events {
			st.Observe(e)
		}
	}
	return st, err
}

func patternVector(events []mcelog.Event, cfg PatternConfig) ([]float64, error) {
	st, err := replayed(events, cfg, DefaultBlockSpec())
	if err != nil {
		return nil, err
	}
	return st.PatternVector()
}

func blockVector(events []mcelog.Event, anchorRow int, spec BlockSpec, block int, now time.Time) ([]float64, error) {
	st, err := replayed(events, DefaultPatternConfig(), spec)
	if err != nil {
		return nil, err
	}
	return st.BlockVector(anchorRow, block, now)
}

func errBitVector(events []mcelog.Event) ([]float64, error) {
	st, err := replayed(events, DefaultPatternConfig(), DefaultBlockSpec())
	if err != nil {
		return nil, err
	}
	return st.ErrBitVector()
}

func featureIndex(t *testing.T, names []string, name string) int {
	t.Helper()
	for i, n := range names {
		if n == name {
			return i
		}
	}
	t.Fatalf("feature %q not found in %v", name, names)
	return -1
}

func TestPatternFeatureNamesMatchVectorLength(t *testing.T) {
	names := PatternFeatureNames()
	events := []mcelog.Event{
		ev(0, 100, ecc.ClassCE),
		ev(1, 110, ecc.ClassUER),
		ev(2, 112, ecc.ClassUER),
	}
	vec, err := patternVector(events, DefaultPatternConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != len(names) {
		t.Fatalf("vector length %d != names length %d", len(vec), len(names))
	}
}

// TestFeatureNamesBuiltOnce: the column names are made once per process, so
// a call costs nothing, and are full, so a caller's append cannot write the
// shared array.
func TestFeatureNamesBuiltOnce(t *testing.T) {
	for name, names := range map[string]func() []string{"pattern": PatternFeatureNames, "block": BlockFeatureNames} {
		if n := names(); cap(n) != len(n) {
			t.Errorf("%s names: cap %d, len %d", name, cap(n), len(n))
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = names() }); allocs != 0 {
			t.Errorf("%s names cost %v allocations a call", name, allocs)
		}
	}
}

func TestPatternVectorNoUERFails(t *testing.T) {
	events := []mcelog.Event{ev(0, 1, ecc.ClassCE)}
	if _, err := patternVector(events, DefaultPatternConfig()); err == nil {
		t.Fatal("CE-only bank accepted")
	}
}

func TestPatternVectorKnownValues(t *testing.T) {
	names := PatternFeatureNames()
	events := []mcelog.Event{
		ev(0, 50, ecc.ClassCE),
		ev(2, 60, ecc.ClassCE),
		ev(4, 100, ecc.ClassUER),
		ev(6, 130, ecc.ClassUER),
		ev(7, 115, ecc.ClassUER),
		ev(9, 999, ecc.ClassUER), // beyond budget: must be invisible
	}
	vec, err := patternVector(events, DefaultPatternConfig())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 { return vec[featureIndex(t, names, name)] }

	if got := get("uer_row_min"); got != 100 {
		t.Errorf("uer_row_min = %g", got)
	}
	if got := get("uer_row_max"); got != 130 {
		t.Errorf("uer_row_max = %g (budget leak?)", got)
	}
	if got := get("uer_row_span"); got != 30 {
		t.Errorf("uer_row_span = %g", got)
	}
	if got := get("uer_count_used"); got != 3 {
		t.Errorf("uer_count_used = %g", got)
	}
	if got := get("ce_count_before_first_uer"); got != 2 {
		t.Errorf("ce_count_before_first_uer = %g", got)
	}
	if got := get("ueo_count_before_first_uer"); got != 0 {
		t.Errorf("ueo_count_before_first_uer = %g", got)
	}
	if got := get("ce_row_min"); got != 50 {
		t.Errorf("ce_row_min = %g", got)
	}
	if got := get("ce_row_diff_avg"); got != 10 {
		t.Errorf("ce_row_diff_avg = %g", got)
	}
	// UER row diffs in time order: |130-100|=30, |115-130|=15.
	if got := get("uer_row_diff_min"); got != 15 {
		t.Errorf("uer_row_diff_min = %g", got)
	}
	if got := get("uer_row_diff_max"); got != 30 {
		t.Errorf("uer_row_diff_max = %g", got)
	}
	// Time from first error (hour 0) to first UER (hour 4).
	if got := get("first_error_to_first_uer_h"); math.Abs(got-4) > 1e-9 {
		t.Errorf("first_error_to_first_uer_h = %g", got)
	}
	if got := get("ce_rate_before_first_uer"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ce_rate_before_first_uer = %g", got)
	}
	// UEO features are Missing.
	if got := get("ueo_row_min"); got != Missing {
		t.Errorf("ueo_row_min = %g, want Missing", got)
	}
}

func TestPatternVectorRepeatUERRowsDeduplicated(t *testing.T) {
	names := PatternFeatureNames()
	events := []mcelog.Event{
		ev(0, 100, ecc.ClassUER),
		ev(1, 100, ecc.ClassUER), // repeat of same row
		ev(2, 105, ecc.ClassUER),
		ev(3, 110, ecc.ClassUER),
	}
	vec, err := patternVector(events, DefaultPatternConfig())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 { return vec[featureIndex(t, names, name)] }
	// Distinct rows 100, 105, 110 → budget covers all three.
	if got := get("uer_row_max"); got != 110 {
		t.Errorf("uer_row_max = %g (repeat rows should not consume budget)", got)
	}
	if got := get("uer_count_used"); got != 3 {
		t.Errorf("uer_count_used = %g", got)
	}
}

func TestPatternVectorBudgetOne(t *testing.T) {
	events := []mcelog.Event{
		ev(0, 100, ecc.ClassUER),
		ev(5, 9999, ecc.ClassUER),
	}
	vec, err := patternVector(events, PatternConfig{UERBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	names := PatternFeatureNames()
	if got := vec[featureIndex(t, names, "uer_row_max")]; got != 100 {
		t.Errorf("budget-1 uer_row_max = %g", got)
	}
	if got := vec[featureIndex(t, names, "uer_row_span")]; got != 0 {
		t.Errorf("budget-1 uer_row_span = %g", got)
	}
}

func TestPatternVectorAllFinite(t *testing.T) {
	// Fuzz against the real generator: every produced vector must be finite
	// and fixed-length.
	gen, err := faultsim.NewGenerator(faultsim.DefaultConfig(hbm.HBM2E), *xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		bf, err := gen.GenerateSampled(hbm.BankAddress{}, faultsim.DefaultPatternWeights())
		if err != nil {
			t.Fatal(err)
		}
		vec, err := patternVector(bf.Events, DefaultPatternConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("feature %d = %g", i, v)
			}
		}
	}
}

func TestBlockSpecGeometry(t *testing.T) {
	spec := DefaultBlockSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.NumBlocks() != 16 {
		t.Fatalf("NumBlocks = %d, want 16", spec.NumBlocks())
	}
	lo, hi := spec.BlockRange(1000, 0)
	if lo != 936 || hi != 943 {
		t.Fatalf("block 0 = [%d,%d]", lo, hi)
	}
	lo, hi = spec.BlockRange(1000, 15)
	if lo != 1056 || hi != 1063 {
		t.Fatalf("block 15 = [%d,%d]", lo, hi)
	}
	// The union of blocks covers exactly [anchor-64, anchor+63].
	covered := make(map[int]int)
	for b := 0; b < spec.NumBlocks(); b++ {
		lo, hi := spec.BlockRange(1000, b)
		for r := lo; r <= hi; r++ {
			covered[r]++
		}
	}
	if len(covered) != 128 {
		t.Fatalf("blocks cover %d rows, want 128", len(covered))
	}
	for r, n := range covered {
		if n != 1 {
			t.Fatalf("row %d covered %d times", r, n)
		}
	}
}

func TestBlockSpecValidateRejects(t *testing.T) {
	for _, s := range []BlockSpec{
		{WindowRadius: 0, BlockSize: 8},
		{WindowRadius: 64, BlockSize: 0},
		{WindowRadius: 64, BlockSize: 7}, // 128 % 7 != 0
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestBlockFeatureNamesMatchVectorLength(t *testing.T) {
	events := []mcelog.Event{
		ev(0, 100, ecc.ClassCE),
		ev(1, 105, ecc.ClassUER),
	}
	vec, err := blockVector(events, 105, DefaultBlockSpec(), 3, t0.Add(2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != len(BlockFeatureNames()) {
		t.Fatalf("vector length %d != names %d", len(vec), len(BlockFeatureNames()))
	}
}

func TestBlockVectorKnownValues(t *testing.T) {
	names := BlockFeatureNames()
	anchor := 1000
	spec := DefaultBlockSpec()
	events := []mcelog.Event{
		ev(0, 990, ecc.ClassCE),
		ev(1, 1000, ecc.ClassUER),
		ev(2, 940, ecc.ClassCE), // inside block 0 (rows 936..943)
	}
	now := t0.Add(3 * time.Hour)
	vec, err := blockVector(events, anchor, spec, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 { return vec[featureIndex(t, names, name)] }
	if got := get("ce_count"); got != 2 {
		t.Errorf("ce_count = %g", got)
	}
	if got := get("uer_count"); got != 1 {
		t.Errorf("uer_count = %g", got)
	}
	if got := get("all_count"); got != 3 {
		t.Errorf("all_count = %g", got)
	}
	if got := get("time_since_last_event_h"); math.Abs(got-1) > 1e-9 {
		t.Errorf("time_since_last_event_h = %g", got)
	}
	// Block 0 centre = (936+943)/2 = 939; offset = -61.
	if got := get("block_offset_rows"); got != -61 {
		t.Errorf("block_offset_rows = %g", got)
	}
	if got := get("block_abs_offset_rows"); got != 61 {
		t.Errorf("block_abs_offset_rows = %g", got)
	}
	if got := get("block_prior_error_count"); got != 1 {
		t.Errorf("block_prior_error_count = %g", got)
	}
	if got := get("block_prior_uer_count"); got != 0 {
		t.Errorf("block_prior_uer_count = %g", got)
	}
	// Nearest CE row to centre 939 is 940 → distance 1.
	if got := get("dist_to_nearest_ce_row"); got != 1 {
		t.Errorf("dist_to_nearest_ce_row = %g", got)
	}
	if got := get("dist_to_nearest_ueo_row"); got != Missing {
		t.Errorf("dist_to_nearest_ueo_row = %g", got)
	}
	if got := get("dist_to_nearest_uer_row"); got != 61 {
		t.Errorf("dist_to_nearest_uer_row = %g", got)
	}
	if got := get("uer_rows_observed"); got != 1 {
		t.Errorf("uer_rows_observed = %g", got)
	}
	if got := get("anchor_row"); got != 1000 {
		t.Errorf("anchor_row = %g", got)
	}
}

func TestBlockVectorRejectsBadBlock(t *testing.T) {
	events := []mcelog.Event{ev(0, 1, ecc.ClassUER)}
	if _, err := blockVector(events, 1, DefaultBlockSpec(), -1, t0); err == nil {
		t.Error("block -1 accepted")
	}
	if _, err := blockVector(events, 1, DefaultBlockSpec(), 16, t0); err == nil {
		t.Error("block 16 accepted")
	}
	if _, err := blockVector(events, 1, BlockSpec{WindowRadius: 64, BlockSize: 7}, 0, t0); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBlockVectorEmptyEvents(t *testing.T) {
	vec, err := blockVector(nil, 100, DefaultBlockSpec(), 5, t0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %d = %g", i, v)
		}
	}
}

func TestBlockVectorAllFiniteFuzz(t *testing.T) {
	gen, err := faultsim.NewGenerator(faultsim.DefaultConfig(hbm.HBM2E), *xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultBlockSpec()
	for trial := 0; trial < 100; trial++ {
		bf, err := gen.GenerateSampled(hbm.BankAddress{}, faultsim.DefaultPatternWeights())
		if err != nil {
			t.Fatal(err)
		}
		anchor := bf.UERRows[0]
		now := bf.UERTimes[0].Add(time.Minute)
		var visible []mcelog.Event
		for _, e := range bf.Events {
			if e.Time.Before(now) {
				visible = append(visible, e)
			}
		}
		for b := 0; b < spec.NumBlocks(); b++ {
			vec, err := blockVector(visible, anchor, spec, b, now)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range vec {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("block %d feature %d = %g", b, i, v)
				}
			}
		}
	}
}

func BenchmarkPatternVector(b *testing.B) {
	gen, err := faultsim.NewGenerator(faultsim.DefaultConfig(hbm.HBM2E), *xrand.New(3))
	if err != nil {
		b.Fatal(err)
	}
	bf, err := gen.Generate(hbm.BankAddress{}, faultsim.PatternScattered)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultPatternConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := patternVector(bf.Events, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockVector(b *testing.B) {
	gen, err := faultsim.NewGenerator(faultsim.DefaultConfig(hbm.HBM2E), *xrand.New(4))
	if err != nil {
		b.Fatal(err)
	}
	bf, err := gen.Generate(hbm.BankAddress{}, faultsim.PatternSingleRow)
	if err != nil {
		b.Fatal(err)
	}
	spec := DefaultBlockSpec()
	now := bf.UERTimes[len(bf.UERTimes)-1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blockVector(bf.Events, bf.UERRows[0], spec, i%16, now); err != nil {
			b.Fatal(err)
		}
	}
}
