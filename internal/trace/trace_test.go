package trace

import (
	"math"
	"sort"
	"testing"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// testSpec returns a small but statistically meaningful fleet spec.
func testSpec(seed uint64) Spec {
	s := DefaultSpec(hbm.DefaultGeometry)
	s.UERBanks = 120
	s.BenignBanks = 700
	s.Seed = seed
	return s
}

func generate(t *testing.T, seed uint64) *Fleet {
	t.Helper()
	f, err := Generate(testSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaultSpecValid(t *testing.T) {
	if err := DefaultSpec(hbm.DefaultGeometry).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	s := DefaultSpec(hbm.DefaultGeometry)
	s.UERBanks = -1
	if err := s.Validate(); err == nil {
		t.Error("negative UERBanks accepted")
	}
	s = DefaultSpec(hbm.DefaultGeometry)
	s.UERBanks = s.Fault.Profile.Geometry.TotalBanks() + 1
	if err := s.Validate(); err == nil {
		t.Error("overfull fleet accepted")
	}
	s = DefaultSpec(hbm.DefaultGeometry)
	s.CompanionProbs[hbm.LevelSID] = 1.5
	if err := s.Validate(); err == nil {
		t.Error("companion probability >1 accepted")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	f := generate(t, 1)
	if len(f.Faults) != 120 {
		t.Fatalf("fault count = %d, want 120", len(f.Faults))
	}
	if evs := f.Log().Events(); !sort.SliceIsSorted(evs, func(i, j int) bool { return evs[i].Before(evs[j]) }) {
		t.Fatal("fleet log not sorted")
	}
	if f.Log().Len() == 0 {
		t.Fatal("empty fleet log")
	}
	// Every event is valid under the geometry.
	geo := f.Spec.Fault.Profile.Geometry
	for _, e := range f.Log().Events() {
		if err := e.Validate(geo); err != nil {
			t.Fatal(err)
		}
	}
	// Benign banks (companions + independents) at least the independent
	// count.
	if len(f.BenignBankKeys) < 700 {
		t.Fatalf("benign banks = %d, want ≥700", len(f.BenignBankKeys))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, 42)
	b := generate(t, 42)
	if a.Log().Len() != b.Log().Len() {
		t.Fatalf("log lengths differ: %d vs %d", a.Log().Len(), b.Log().Len())
	}
	other := b.Log().Events()
	for i, e := range a.Log().Events() {
		if e != other[i] {
			t.Fatalf("event %d differs across same-seed runs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := generate(t, 1)
	b := generate(t, 2)
	if a.Log().Len() == b.Log().Len() {
		same := true
		other := b.Log().Events()
		for i, e := range a.Log().Events() {
			if e != other[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fleets")
		}
	}
}

func TestNoDuplicateFaultyBanks(t *testing.T) {
	f := generate(t, 3)
	seen := make(map[uint64]bool)
	for _, bf := range f.Faults {
		k := hbm.HBM2E.Layout.PackBank(bf.Bank)
		if seen[k] {
			t.Fatalf("bank %v used twice", bf.Bank)
		}
		seen[k] = true
	}
	for _, k := range f.BenignBankKeys {
		if seen[k] {
			t.Fatalf("benign bank %v collides with a faulty bank", hbm.HBM2E.Layout.Unpack(k))
		}
	}
}

func TestBenignBanksLogNoUER(t *testing.T) {
	f := generate(t, 4)
	benign := make(map[uint64]bool)
	for _, k := range f.BenignBankKeys {
		benign[k] = true
	}
	for _, e := range f.Log().Events() {
		if e.Class == ecc.ClassUER && benign[e.Addr.BankKey()] {
			t.Fatalf("benign bank %v logged a UER", e.Addr)
		}
	}
}

func TestSuddenByLevelTableIShape(t *testing.T) {
	f := generate(t, 5)
	rows := SuddenByLevel(hbm.HBM2E, f.Log())
	if len(rows) != len(hbm.HBM2E.TableLevels) {
		t.Fatalf("SuddenByLevel returned %d rows", len(rows))
	}
	byLevel := make(map[hbm.Level]SuddenStats)
	for _, r := range rows {
		byLevel[r.Level] = r
	}
	// Row level: predictable ratio ~4.4% (Table I: 4.39%).
	rowRatio := byLevel[hbm.LevelRow].PredictableRatio()
	if math.Abs(rowRatio-0.0439) > 0.025 {
		t.Errorf("row predictable ratio = %.4f, want ~0.044", rowRatio)
	}
	// Bank level: ~29% (Table I: 29.23%); generous tolerance — it is an
	// emergent quantity.
	bankRatio := byLevel[hbm.LevelBank].PredictableRatio()
	if bankRatio < 0.18 || bankRatio > 0.42 {
		t.Errorf("bank predictable ratio = %.4f, want ~0.29", bankRatio)
	}
	// Monotone non-decreasing from Row to NPU (coarser entities see more
	// precursors). Allow small statistical slack.
	order := []hbm.Level{
		hbm.LevelRow, hbm.LevelBank, hbm.LevelBankGroup,
		hbm.LevelPseudoChannel, hbm.LevelSID, hbm.LevelHBM, hbm.LevelNPU,
	}
	for i := 1; i < len(order); i++ {
		prev, cur := byLevel[order[i-1]].PredictableRatio(), byLevel[order[i]].PredictableRatio()
		if cur < prev-0.03 {
			t.Errorf("predictable ratio at %v (%.3f) dips below %v (%.3f)",
				order[i], cur, order[i-1], prev)
		}
	}
	// Sudden UERs dominate at the row level, as the paper stresses
	// (95.61%).
	if s := byLevel[hbm.LevelRow]; s.Sudden <= s.NonSudden*10 {
		t.Errorf("row-level sudden/non-sudden = %d/%d, sudden should dominate", s.Sudden, s.NonSudden)
	}
}

func TestSummaryByLevelTableIIShape(t *testing.T) {
	f := generate(t, 6)
	rows := SummaryByLevel(hbm.HBM2E, f.Log())
	if len(rows) != len(hbm.HBM2E.TableLevels) {
		t.Fatalf("SummaryByLevel returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.WithCE < r.WithUEO && r.Level != hbm.LevelRow {
			t.Errorf("%v: CE entities (%d) fewer than UEO entities (%d)", r.Level, r.WithCE, r.WithUEO)
		}
		if r.Total < r.WithCE || r.Total < r.WithUER {
			t.Errorf("%v: total %d below class counts", r.Level, r.Total)
		}
		if r.WithCE <= r.WithUER {
			t.Errorf("%v: CE entities (%d) should exceed UER entities (%d)", r.Level, r.WithCE, r.WithUER)
		}
	}
	// Finer levels have at least as many affected entities as coarser ones.
	for i := 1; i < len(rows); i++ {
		if rows[i].Total < rows[i-1].Total {
			t.Errorf("total entities decreased from %v (%d) to %v (%d)",
				rows[i-1].Level, rows[i-1].Total, rows[i].Level, rows[i].Total)
		}
	}
	// Bank level: the UER bank count matches the ground truth.
	for _, r := range rows {
		if r.Level == hbm.LevelBank && r.WithUER != len(f.Faults) {
			t.Errorf("banks with UER = %d, want %d", r.WithUER, len(f.Faults))
		}
	}
}

func TestPatternDistributionMatchesWeights(t *testing.T) {
	s := testSpec(7)
	s.UERBanks = 600
	s.BenignBanks = 0
	f, err := Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	dist := PatternDistribution(f.Faults)
	want := map[faultsim.Pattern]float64{
		faultsim.PatternSingleRow:    0.682,
		faultsim.PatternDoubleRow:    0.099,
		faultsim.PatternHalfTotalRow: 0.073,
		faultsim.PatternScattered:    0.125,
		faultsim.PatternWholeColumn:  0.021,
	}
	totalShare := 0.0
	for _, p := range dist {
		totalShare += p.Share
		if math.Abs(p.Share-want[p.Pattern]) > 0.06 {
			t.Errorf("%v share = %.3f, want ~%.3f", p.Pattern, p.Share, want[p.Pattern])
		}
	}
	if math.Abs(totalShare-1) > 1e-9 {
		t.Errorf("shares sum to %g", totalShare)
	}
}

func TestPatternDistributionEmpty(t *testing.T) {
	dist := PatternDistribution(nil)
	for _, p := range dist {
		if p.Count != 0 || p.Share != 0 {
			t.Fatalf("empty distribution has non-zero entry %+v", p)
		}
	}
}

func TestLocalityChiSquarePeaksAt128(t *testing.T) {
	f := generate(t, 8)
	points, err := LocalityChiSquare(hbm.HBM2E, f.Log(), f.Spec.Fault.Profile.Geometry.RowsPerBank, DefaultThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 10 {
		t.Fatalf("got %d points, want 10", len(points))
	}
	peak := PeakThreshold(points)
	// The paper's Figure 4 peak: 128 rows. Allow one neighbouring power of
	// two of statistical slack.
	if peak != 128 && peak != 64 && peak != 256 {
		t.Fatalf("locality peak at %d rows, want 128 (±1 octave)", peak)
	}
	// Observed fraction is monotone in the threshold.
	for i := 1; i < len(points); i++ {
		if points[i].Observed < points[i-1].Observed {
			t.Fatalf("observed fraction not monotone at threshold %d", points[i].Threshold)
		}
	}
	// The statistic is meaningfully positive at the peak.
	for _, p := range points {
		if p.Threshold == peak && p.ChiSquare < 100 {
			t.Fatalf("peak chi-square %.1f too small", p.ChiSquare)
		}
	}
}

func TestLocalityChiSquarePeakIsExactly128MultiSeed(t *testing.T) {
	// Across several seeds the modal peak must be 128, matching Figure 4.
	hits := 0
	const seeds = 5
	for seed := uint64(20); seed < 20+seeds; seed++ {
		f := generate(t, seed)
		points, err := LocalityChiSquare(hbm.HBM2E, f.Log(), f.Spec.Fault.Profile.Geometry.RowsPerBank, DefaultThresholds())
		if err != nil {
			t.Fatal(err)
		}
		if PeakThreshold(points) == 128 {
			hits++
		}
	}
	if hits < seeds-1 {
		t.Fatalf("peak at 128 in only %d/%d seeds", hits, seeds)
	}
}

func TestLocalityChiSquareErrors(t *testing.T) {
	f := generate(t, 9)
	if _, err := LocalityChiSquare(hbm.HBM2E, f.Log(), 1, DefaultThresholds()); err == nil {
		t.Error("rowsPerBank=1 accepted")
	}
	if _, err := LocalityChiSquare(hbm.HBM2E, f.Log(), 32768, nil); err == nil {
		t.Error("empty thresholds accepted")
	}
	if _, err := LocalityChiSquare(hbm.HBM2E, f.Log(), 32768, []int{0}); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := LocalityChiSquare(hbm.HBM2E, &mcelog.Log{}, 32768, DefaultThresholds()); err == nil {
		t.Error("empty log accepted")
	}
}

func TestDefaultThresholds(t *testing.T) {
	ths := DefaultThresholds()
	want := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	if len(ths) != len(want) {
		t.Fatalf("thresholds = %v", ths)
	}
	for i := range want {
		if ths[i] != want[i] {
			t.Fatalf("thresholds = %v, want %v", ths, want)
		}
	}
}

func TestSuddenStatsPredictableRatio(t *testing.T) {
	s := SuddenStats{Sudden: 760, NonSudden: 314}
	if r := s.PredictableRatio(); math.Abs(r-0.2923) > 0.001 {
		t.Fatalf("PredictableRatio = %.4f, want 0.2923", r)
	}
	var zero SuddenStats
	if zero.PredictableRatio() != 0 {
		t.Fatal("zero stats ratio not 0")
	}
}

func BenchmarkGenerateFleet(b *testing.B) {
	s := testSpec(1)
	s.UERBanks = 50
	s.BenignBanks = 200
	for i := 0; i < b.N; i++ {
		if _, err := Generate(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuddenByLevel(b *testing.B) {
	f, err := Generate(testSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SuddenByLevel(hbm.HBM2E, f.Log())
	}
}
