// Package stats provides the statistical machinery behind the paper's
// empirical study: chi-square tests (goodness-of-fit and contingency) with
// p-values computed from the regularised incomplete gamma function. It is
// dependency-free and operates on plain float64 slices.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ChiSquareGoodnessOfFit returns the chi-square statistic and degrees of
// freedom for observed counts against expected counts. Cells with expected
// value zero but non-zero observed count make the statistic +Inf; cells with
// both zero are skipped (and reduce the degrees of freedom).
func ChiSquareGoodnessOfFit(observed, expected []float64) (stat float64, df int, err error) {
	if len(observed) != len(expected) {
		return 0, 0, fmt.Errorf("stats: observed has %d cells, expected %d", len(observed), len(expected))
	}
	if len(observed) < 2 {
		return 0, 0, fmt.Errorf("stats: chi-square needs ≥2 cells, got %d", len(observed))
	}
	used := 0
	for i := range observed {
		o, e := observed[i], expected[i]
		if e < 0 || o < 0 {
			return 0, 0, fmt.Errorf("stats: negative count in cell %d", i)
		}
		if e == 0 {
			if o != 0 {
				return math.Inf(1), len(observed) - 1, nil
			}
			continue
		}
		d := o - e
		stat += d * d / e
		used++
	}
	if used < 2 {
		return 0, 0, errors.New("stats: fewer than 2 usable cells")
	}
	return stat, used - 1, nil
}

// ChiSquareContingency returns the chi-square statistic and degrees of
// freedom for an r×c contingency table of counts, testing independence of
// rows and columns.
func ChiSquareContingency(table [][]float64) (stat float64, df int, err error) {
	r := len(table)
	if r < 2 {
		return 0, 0, fmt.Errorf("stats: contingency table needs ≥2 rows, got %d", r)
	}
	c := len(table[0])
	if c < 2 {
		return 0, 0, fmt.Errorf("stats: contingency table needs ≥2 columns, got %d", c)
	}
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	total := 0.0
	for i, row := range table {
		if len(row) != c {
			return 0, 0, fmt.Errorf("stats: row %d has %d cells, want %d", i, len(row), c)
		}
		for j, v := range row {
			if v < 0 {
				return 0, 0, fmt.Errorf("stats: negative count at (%d,%d)", i, j)
			}
			rowSum[i] += v
			colSum[j] += v
			total += v
		}
	}
	if total == 0 {
		return 0, 0, errors.New("stats: contingency table is all zeros")
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			e := rowSum[i] * colSum[j] / total
			if e == 0 {
				continue
			}
			d := table[i][j] - e
			stat += d * d / e
		}
	}
	return stat, (r - 1) * (c - 1), nil
}

// ChiSquarePValue returns P(X ≥ stat) for a chi-square distribution with df
// degrees of freedom: the upper regularised incomplete gamma Q(df/2, stat/2).
func ChiSquarePValue(stat float64, df int) (float64, error) {
	if df <= 0 {
		return 0, fmt.Errorf("stats: degrees of freedom must be positive, got %d", df)
	}
	if stat < 0 {
		return 0, fmt.Errorf("stats: chi-square statistic must be non-negative, got %g", stat)
	}
	if math.IsInf(stat, 1) {
		return 0, nil
	}
	return upperIncompleteGammaRegularized(float64(df)/2, stat/2), nil
}

// upperIncompleteGammaRegularized computes Q(a, x) = Γ(a, x)/Γ(a) using the
// series expansion for x < a+1 and the continued fraction otherwise
// (Numerical Recipes §6.2).
func upperIncompleteGammaRegularized(a, x float64) float64 {
	if x <= 0 {
		return 1
	}
	if x < a+1 {
		return 1 - lowerGammaSeries(a, x)
	}
	return upperGammaContinuedFraction(a, x)
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 500
)

// lowerGammaSeries computes P(a, x) by series expansion (x < a+1).
func lowerGammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// upperGammaContinuedFraction computes Q(a, x) by the Lentz continued
// fraction (x ≥ a+1).
func upperGammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
