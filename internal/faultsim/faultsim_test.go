package faultsim

import (
	"math"
	"sort"
	"testing"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

func newGen(t *testing.T, seed uint64) *Generator {
	t.Helper()
	g, err := NewGenerator(DefaultConfig(hbm.HBM2E), *xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(hbm.HBM2E).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"onset fraction zero", func(c *Config) { c.OnsetFraction = 0 }},
		{"onset fraction >1", func(c *Config) { c.OnsetFraction = 1.5 }},
		{"zero sigma", func(c *Config) { c.ClusterSigma = 0 }},
		{"gap inverted", func(c *Config) { c.DoubleRowGapMin = 100; c.DoubleRowGapMax = 50 }},
		{"gap too large", func(c *Config) { c.DoubleRowGapMax = 1 << 20 }},
		{"negative count range", func(c *Config) { c.BenignCEs = [2]int{-1, 3} }},
		{"inverted count range", func(c *Config) { c.ScatteredUERs = [2]int{10, 9} }},
		{"sudden prob >1", func(c *Config) { c.SuddenRowProb = 1.2 }},
		{"double-row min too small", func(c *Config) { c.DoubleRowUERs = [2]int{1, 5} }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig(hbm.HBM2E)
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestNewGeneratorRejectsNilRNG: a generator takes its RNG by value, so the
// unusable one it refuses is the zero RNG, what a nil pointer was before.
func TestNewGeneratorRejectsNilRNG(t *testing.T) {
	if _, err := NewGenerator(DefaultConfig(hbm.HBM2E), xrand.RNG{}); err == nil {
		t.Fatal("zero RNG accepted")
	}
}

func TestClassOfMapping(t *testing.T) {
	tests := map[Pattern]Class{
		PatternSingleRow:    ClassSingleRow,
		PatternDoubleRow:    ClassDoubleRow,
		PatternHalfTotalRow: ClassDoubleRow,
		PatternScattered:    ClassScattered,
		PatternWholeColumn:  ClassScattered,
	}
	for p, want := range tests {
		if got := ClassOf(p); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestIsAggregation(t *testing.T) {
	if !ClassSingleRow.IsAggregation() || !ClassDoubleRow.IsAggregation() {
		t.Error("aggregation classes not flagged")
	}
	if ClassScattered.IsAggregation() {
		t.Error("scattered flagged as aggregation")
	}
}

func TestPatternWeightsSampleMatchesDistribution(t *testing.T) {
	r := xrand.New(17)
	w := DefaultPatternWeights()
	const n = 100000
	counts := make(map[Pattern]int)
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	for p, weight := range w {
		got := float64(counts[p]) / n * 100
		if math.Abs(got-weight) > 0.6 {
			t.Errorf("%v frequency %.2f%%, want ~%.1f%%", p, got, weight)
		}
	}
}

func TestGenerateProducesGroundTruthConsistency(t *testing.T) {
	g := newGen(t, 1)
	bank := hbm.RandomBank(hbm.DefaultGeometry, xrand.New(2))
	for _, p := range AllPatterns {
		bf, err := g.Generate(bank, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if bf.Pattern != p || bf.Bank != bank {
			t.Fatalf("%v: pattern/bank mismatch", p)
		}
		n := len(bf.UERRows)
		if n == 0 || len(bf.UERTimes) != n || len(bf.SuddenRow) != n {
			t.Fatalf("%v: ground truth lengths %d/%d/%d", p, n, len(bf.UERTimes), len(bf.SuddenRow))
		}
		// UER times are non-decreasing in failure order.
		for i := 1; i < n; i++ {
			if bf.UERTimes[i].Before(bf.UERTimes[i-1]) {
				t.Fatalf("%v: UER times out of order at %d", p, i)
			}
		}
		// Every UER row has a UER event; events sorted; all within bank.
		if !sort.SliceIsSorted(bf.Events, func(i, j int) bool { return bf.Events[i].Before(bf.Events[j]) }) {
			t.Fatalf("%v: events not sorted", p)
		}
		uerRows := make(map[int]bool)
		for _, e := range bf.Events {
			if e.Addr.BankKey() != bank.BankKey() {
				t.Fatalf("%v: event outside bank: %v", p, e.Addr)
			}
			if err := e.Validate(hbm.DefaultGeometry); err != nil {
				t.Fatalf("%v: invalid event: %v", p, err)
			}
			if e.Class == ecc.ClassUER {
				uerRows[e.Addr.Row] = true
			}
		}
		for _, row := range bf.UERRows {
			if !uerRows[row] {
				t.Fatalf("%v: ground-truth UER row %d has no UER event", p, row)
			}
		}
		if len(uerRows) != n {
			t.Fatalf("%v: %d distinct UER event rows vs %d ground truth rows", p, len(uerRows), n)
		}
	}
}

func TestSuddenRowsHaveNoPrecursors(t *testing.T) {
	g := newGen(t, 3)
	bank := hbm.BankAddress{Node: 1}
	for trial := 0; trial < 50; trial++ {
		bf, err := g.Generate(bank, PatternSingleRow)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range bf.UERRows {
			var hasPrecursor bool
			for _, e := range bf.Events {
				if e.Addr.Row == row && e.Class != ecc.ClassUER && e.Time.Before(bf.UERTimes[i]) {
					hasPrecursor = true
				}
			}
			if bf.SuddenRow[i] && hasPrecursor {
				t.Fatalf("row %d flagged sudden but has precursor", row)
			}
			if !bf.SuddenRow[i] && !hasPrecursor {
				t.Fatalf("row %d flagged non-sudden but has no precursor", row)
			}
		}
	}
}

func TestSuddenRatioCalibration(t *testing.T) {
	g := newGen(t, 5)
	bank := hbm.BankAddress{Node: 2}
	total, sudden := 0, 0
	for trial := 0; trial < 600; trial++ {
		bf, err := g.GenerateSampled(bank, DefaultPatternWeights())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range bf.SuddenRow {
			total++
			if s {
				sudden++
			}
		}
	}
	ratio := float64(sudden) / float64(total)
	if math.Abs(ratio-0.9561) > 0.02 {
		t.Fatalf("sudden row ratio = %.4f, want ~0.9561", ratio)
	}
}

func TestSingleRowClusterIsTight(t *testing.T) {
	g := newGen(t, 7)
	bank := hbm.BankAddress{}
	for trial := 0; trial < 100; trial++ {
		bf, err := g.Generate(bank, PatternSingleRow)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := bf.UERRows[0], bf.UERRows[0]
		for _, r := range bf.UERRows {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		// With sigma 64 the whole cluster spans well under 1024 rows
		// (allowing for the occasional widened 3-sigma redraw).
		if hi-lo > 1024 {
			t.Fatalf("single-row cluster spans %d rows", hi-lo)
		}
	}
}

func TestDoubleRowHasTwoClusters(t *testing.T) {
	g := newGen(t, 9)
	cfg := g.cfg
	bank := hbm.BankAddress{}
	for trial := 0; trial < 100; trial++ {
		bf, err := g.Generate(bank, PatternDoubleRow)
		if err != nil {
			t.Fatal(err)
		}
		// The row set must split into two groups separated by a gap of at
		// least DoubleRowGapMin/2.
		rows := append([]int(nil), bf.UERRows...)
		sortInts(rows)
		maxGap, gapAt := 0, -1
		for i := 1; i < len(rows); i++ {
			if d := rows[i] - rows[i-1]; d > maxGap {
				maxGap, gapAt = d, i
			}
		}
		if maxGap < cfg.DoubleRowGapMin/2 {
			t.Fatalf("double-row max gap %d too small", maxGap)
		}
		// Both sides of the split are tight clusters.
		for _, side := range [][]int{rows[:gapAt], rows[gapAt:]} {
			if len(side) == 0 {
				t.Fatal("empty cluster side")
			}
			if side[len(side)-1]-side[0] > 1024 {
				t.Fatalf("cluster side spans %d rows", side[len(side)-1]-side[0])
			}
		}
	}
}

func TestHalfTotalRowGapIsHalfBank(t *testing.T) {
	g := newGen(t, 11)
	geo := hbm.DefaultGeometry
	bank := hbm.BankAddress{}
	for trial := 0; trial < 50; trial++ {
		bf, err := g.Generate(bank, PatternHalfTotalRow)
		if err != nil {
			t.Fatal(err)
		}
		rows := append([]int(nil), bf.UERRows...)
		sortInts(rows)
		maxGap := 0
		for i := 1; i < len(rows); i++ {
			if d := rows[i] - rows[i-1]; d > maxGap {
				maxGap = d
			}
		}
		// The dominant gap should be near half the bank (minus cluster spread).
		if math.Abs(float64(maxGap-geo.RowsPerBank/2)) > 1024 {
			t.Fatalf("half-total-row gap %d, want ~%d", maxGap, geo.RowsPerBank/2)
		}
	}
}

func TestWholeColumnPinsColumn(t *testing.T) {
	g := newGen(t, 13)
	bf, err := g.Generate(hbm.BankAddress{}, PatternWholeColumn)
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	for _, e := range bf.Events {
		if col == -1 {
			col = e.Addr.Column
		}
		if e.Addr.Column != col {
			t.Fatalf("whole-column events use multiple columns: %d and %d", col, e.Addr.Column)
		}
	}
	if len(bf.UERRows) < 30 {
		t.Fatalf("whole-column has only %d UER rows", len(bf.UERRows))
	}
}

func TestScatteredSpansBank(t *testing.T) {
	g := newGen(t, 15)
	geo := hbm.DefaultGeometry
	wide := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		bf, err := g.Generate(hbm.BankAddress{}, PatternScattered)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := bf.UERRows[0], bf.UERRows[0]
		for _, r := range bf.UERRows {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
		}
		if hi-lo > geo.RowsPerBank/2 {
			wide++
		}
	}
	if wide < trials*3/4 {
		t.Fatalf("only %d/%d scattered banks span more than half the rows", wide, trials)
	}
}

func TestAggregationLocalityWithin128(t *testing.T) {
	// The Figure 4 calibration: successive UER rows of single-row clusters
	// should nearly always be within 128 rows, but not within 8.
	g := newGen(t, 17)
	within128, within8, total := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		bf, err := g.Generate(hbm.BankAddress{}, PatternSingleRow)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(bf.UERRows); i++ {
			d := abs(bf.UERRows[i] - bf.UERRows[i-1])
			total++
			if d <= 128 {
				within128++
			}
			if d <= 8 {
				within8++
			}
		}
	}
	// With sigma 64, successive offsets are ~N(0, 64*sqrt(2)): about 84%
	// of successive pairs land within 128 rows and only ~7% within 8 —
	// wide enough that tiny thresholds miss, tight enough that 128 works.
	f128 := float64(within128) / float64(total)
	f8 := float64(within8) / float64(total)
	if f128 < 0.78 {
		t.Fatalf("within-128 fraction = %.3f, want ≥0.78", f128)
	}
	if f8 > 0.2 {
		t.Fatalf("within-8 fraction = %.3f, want <0.2 (cluster should be wider than 8 rows)", f8)
	}
}

func TestAggregationFasterThanScattered(t *testing.T) {
	g := newGen(t, 19)
	meanGap := func(p Pattern, trials int) float64 {
		var sum float64
		var n int
		for i := 0; i < trials; i++ {
			bf, err := g.Generate(hbm.BankAddress{}, p)
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j < len(bf.UERTimes); j++ {
				sum += bf.UERTimes[j].Sub(bf.UERTimes[j-1]).Hours()
				n++
			}
		}
		return sum / float64(n)
	}
	agg := meanGap(PatternSingleRow, 200)
	sc := meanGap(PatternScattered, 200)
	if agg >= sc {
		t.Fatalf("aggregation inter-UER gap %.1fh not below scattered %.1fh", agg, sc)
	}
}

func TestScatteredNoisierThanAggregation(t *testing.T) {
	g := newGen(t, 21)
	meanBg := func(p Pattern, trials int) float64 {
		var sum int
		for i := 0; i < trials; i++ {
			bf, err := g.Generate(hbm.BankAddress{}, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range bf.Events {
				if e.Class == ecc.ClassCE {
					sum++
				}
			}
		}
		return float64(sum) / float64(trials)
	}
	agg := meanBg(PatternSingleRow, 150)
	sc := meanBg(PatternScattered, 150)
	if sc <= agg+5 {
		t.Fatalf("scattered CE count %.1f not clearly above aggregation %.1f", sc, agg)
	}
}

func TestGenerateBenignNoUERs(t *testing.T) {
	g := newGen(t, 23)
	for trial := 0; trial < 100; trial++ {
		events := g.GenerateBenign(hbm.BankAddress{Node: 3})
		for _, e := range events {
			if e.Class == ecc.ClassUER {
				t.Fatal("benign bank logged a UER")
			}
			if err := e.Validate(hbm.DefaultGeometry); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	mk := func() *BankFault {
		g, err := NewGenerator(DefaultConfig(hbm.HBM2E), *xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		bf, err := g.Generate(hbm.BankAddress{Node: 4}, PatternDoubleRow)
		if err != nil {
			t.Fatal(err)
		}
		return bf
	}
	a, b := mk(), mk()
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestEventsWithinWindow(t *testing.T) {
	g := newGen(t, 25)
	cfg := g.cfg
	end := cfg.Start.Add(cfg.Duration)
	for _, p := range AllPatterns {
		bf, err := g.Generate(hbm.BankAddress{}, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range bf.Events {
			if e.Time.Before(cfg.Start) || e.Time.After(end) {
				t.Fatalf("%v: event at %v outside window [%v,%v]", p, e.Time, cfg.Start, end)
			}
		}
	}
}

func TestPatternAndClassStrings(t *testing.T) {
	for _, p := range AllPatterns {
		if s := p.String(); s == "" || s[0] == 'P' {
			t.Errorf("Pattern(%d).String() = %q", int(p), s)
		}
	}
	for _, c := range AllClasses {
		if s := c.String(); s == "" || s[0] == 'C' {
			t.Errorf("Class(%d).String() = %q", int(c), s)
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func BenchmarkGenerateSingleRow(b *testing.B) {
	g, err := NewGenerator(DefaultConfig(hbm.HBM2E), *xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(hbm.BankAddress{}, PatternSingleRow); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSampled(b *testing.B) {
	g, err := NewGenerator(DefaultConfig(hbm.HBM2E), *xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w := DefaultPatternWeights()
	for i := 0; i < b.N; i++ {
		if _, err := g.GenerateSampled(hbm.BankAddress{}, w); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateAllocsPerBank is the generator's allocation gate: a benign
// bank is its one event slice, sorted in place, and a sampled faulty bank
// allocates no per-draw row set and no sorting copy.
func TestGenerateAllocsPerBank(t *testing.T) {
	g := newGen(t, 3)
	rng := xrand.New(4)
	w := DefaultPatternWeights()
	benign := testing.AllocsPerRun(500, func() {
		g.GenerateBenign(hbm.RandomBank(hbm.DefaultGeometry, rng))
	})
	sampled := testing.AllocsPerRun(500, func() {
		if _, err := g.GenerateSampled(hbm.RandomBank(hbm.DefaultGeometry, rng), w); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per bank: GenerateBenign %.0f, GenerateSampled %.0f", benign, sampled)
	if benign != 1 {
		t.Errorf("GenerateBenign allocates %.0f times per bank, want 1", benign)
	}
	if sampled > 10 {
		t.Errorf("GenerateSampled allocates %.0f times per bank, want at most 10", sampled)
	}
}
