package stats

import (
	"math"
	"testing"

	"cordial/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestChiSquareGoodnessOfFitKnownValue(t *testing.T) {
	// Classic die example: 60 rolls, observed vs uniform expectation 10.
	observed := []float64{5, 8, 9, 8, 10, 20}
	expected := []float64{10, 10, 10, 10, 10, 10}
	stat, df, err := ChiSquareGoodnessOfFit(observed, expected)
	if err != nil {
		t.Fatal(err)
	}
	if df != 5 {
		t.Fatalf("df = %d, want 5", df)
	}
	want := (25 + 4 + 1 + 4 + 0 + 100) / 10.0
	if !almostEqual(stat, want, 1e-12) {
		t.Fatalf("stat = %g, want %g", stat, want)
	}
}

func TestChiSquareGoodnessOfFitEdgeCases(t *testing.T) {
	if _, _, err := ChiSquareGoodnessOfFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single cell accepted")
	}
	if _, _, err := ChiSquareGoodnessOfFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := ChiSquareGoodnessOfFit([]float64{-1, 2}, []float64{1, 2}); err == nil {
		t.Error("negative observed accepted")
	}
	stat, _, err := ChiSquareGoodnessOfFit([]float64{5, 0}, []float64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(stat, 1) {
		t.Errorf("zero-expected non-zero-observed stat = %g, want +Inf", stat)
	}
}

func TestChiSquareContingencyKnownValue(t *testing.T) {
	// 2x2 example with hand-computed statistic:
	// [10 20; 30 40]: row sums 30,70; col sums 40,60; total 100.
	table := [][]float64{{10, 20}, {30, 40}}
	stat, df, err := ChiSquareContingency(table)
	if err != nil {
		t.Fatal(err)
	}
	if df != 1 {
		t.Fatalf("df = %d, want 1", df)
	}
	// E = [12 18; 28 42]; chi2 = 4/12+4/18+4/28+4/42 = 0.79365...
	want := 4.0/12 + 4.0/18 + 4.0/28 + 4.0/42
	if !almostEqual(stat, want, 1e-12) {
		t.Fatalf("stat = %g, want %g", stat, want)
	}
}

func TestChiSquareContingencyErrors(t *testing.T) {
	if _, _, err := ChiSquareContingency([][]float64{{1, 2}}); err == nil {
		t.Error("single row accepted")
	}
	if _, _, err := ChiSquareContingency([][]float64{{1}, {2}}); err == nil {
		t.Error("single column accepted")
	}
	if _, _, err := ChiSquareContingency([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged table accepted")
	}
	if _, _, err := ChiSquareContingency([][]float64{{0, 0}, {0, 0}}); err == nil {
		t.Error("all-zero table accepted")
	}
	if _, _, err := ChiSquareContingency([][]float64{{1, -2}, {3, 4}}); err == nil {
		t.Error("negative cell accepted")
	}
}

func TestChiSquarePValueKnownValues(t *testing.T) {
	// Reference values from standard chi-square tables.
	tests := []struct {
		stat float64
		df   int
		want float64
		tol  float64
	}{
		{3.841, 1, 0.05, 1e-3},
		{6.635, 1, 0.01, 1e-3},
		{5.991, 2, 0.05, 1e-3},
		{11.070, 5, 0.05, 1e-3},
		{0, 3, 1, 1e-12},
	}
	for _, tc := range tests {
		got, err := ChiSquarePValue(tc.stat, tc.df)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, tc.tol) {
			t.Errorf("p(stat=%g, df=%d) = %g, want ~%g", tc.stat, tc.df, got, tc.want)
		}
	}
}

func TestChiSquarePValueMonotoneInStat(t *testing.T) {
	prev := 1.1
	for stat := 0.0; stat <= 50; stat += 0.5 {
		p, err := ChiSquarePValue(stat, 4)
		if err != nil {
			t.Fatal(err)
		}
		if p > prev+1e-12 {
			t.Fatalf("p-value not monotone: p(%g)=%g > previous %g", stat, p, prev)
		}
		prev = p
	}
}

func TestChiSquarePValueEdges(t *testing.T) {
	if _, err := ChiSquarePValue(1, 0); err == nil {
		t.Error("df=0 accepted")
	}
	if _, err := ChiSquarePValue(-1, 1); err == nil {
		t.Error("negative stat accepted")
	}
	p, err := ChiSquarePValue(math.Inf(1), 2)
	if err != nil || p != 0 {
		t.Errorf("p(+Inf) = %g err=%v, want 0", p, err)
	}
}

func TestChiSquareDistributionSelfConsistency(t *testing.T) {
	// Sum of df squared standard normals is chi-square(df): the empirical
	// exceedance rate of the 5% critical value should be ≈5%.
	r := xrand.New(123)
	const trials = 20000
	exceed := 0
	for i := 0; i < trials; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			v := r.NormFloat64()
			s += v * v
		}
		if s >= 7.815 { // chi2(3) 5% critical value
			exceed++
		}
	}
	rate := float64(exceed) / trials
	if math.Abs(rate-0.05) > 0.007 {
		t.Fatalf("empirical exceedance = %g, want ~0.05", rate)
	}
}

func BenchmarkChiSquarePValue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ChiSquarePValue(12.3, 4); err != nil {
			b.Fatal(err)
		}
	}
}
