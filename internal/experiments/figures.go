package experiments

import (
	"fmt"
	"io"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// Fig3a holds one example bank per failure pattern — the scatter data of the
// paper's Figure 3(a).
type Fig3a struct {
	Examples map[faultsim.Pattern][]ErrorPoint
}

// ErrorPoint is one plotted error address.
type ErrorPoint struct {
	Row    int
	Column int
	Class  ecc.Class
}

// RunFig3a generates one representative bank per pattern and extracts its
// error scatter.
func RunFig3a(p Params) (*Fig3a, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gen, err := faultsim.NewGenerator(p.Spec.Fault, *xrand.New(p.Spec.Seed))
	if err != nil {
		return nil, err
	}
	out := &Fig3a{Examples: make(map[faultsim.Pattern][]ErrorPoint, len(faultsim.AllPatterns))}
	for _, pattern := range faultsim.AllPatterns {
		bf, err := gen.Generate(hbm.BankAddress{}, pattern)
		if err != nil {
			return nil, err
		}
		points := make([]ErrorPoint, 0, len(bf.Events))
		for _, e := range bf.Events {
			points = append(points, ErrorPoint{Row: e.Addr.Row, Column: e.Addr.Column, Class: e.Class})
		}
		out.Examples[pattern] = points
	}
	return out, nil
}

// Render writes one CSV block per pattern (pattern, row, column, class).
func (f *Fig3a) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "pattern,row,column,class"); err != nil {
		return err
	}
	for _, pattern := range faultsim.AllPatterns {
		for _, pt := range f.Examples[pattern] {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%s\n", pattern, pt.Row, pt.Column, pt.Class); err != nil {
				return err
			}
		}
	}
	return nil
}

// Fig3b is the bank failure pattern distribution — the paper's Figure 3(b).
type Fig3b struct {
	Shares []trace.PatternShare
}

// RunFig3b synthesises a fleet and tallies its ground-truth pattern mix.
func RunFig3b(p Params) (*Fig3b, error) {
	fleet, err := p.fleet()
	if err != nil {
		return nil, err
	}
	return &Fig3b{Shares: trace.PatternDistribution(fleet.Faults)}, nil
}

// Render writes the distribution table.
func (f *Fig3b) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Pattern\tBanks\tShare")
	for _, s := range f.Shares {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", s.Pattern, s.Count, pct(s.Share))
	}
	return tw.Flush()
}

// AggregationShare returns the combined share of the single-row and
// double-row clustering patterns. The paper reports 78.1% (= 68.2 + 9.9),
// counting the half-total-row variant separately in the pie even though the
// classifier treats it as double-row clustering.
func (f *Fig3b) AggregationShare() float64 {
	total := 0.0
	for _, s := range f.Shares {
		if s.Pattern == faultsim.PatternSingleRow || s.Pattern == faultsim.PatternDoubleRow {
			total += s.Share
		}
	}
	return total
}

// Fig4 is the chi-square locality curve over row-distance thresholds — the
// paper's Figure 4, peaking at 128 rows.
type Fig4 struct {
	Points []trace.LocalityPoint
}

// RunFig4 synthesises a fleet and computes the locality statistic for the
// paper's thresholds (4..2048, powers of two).
func RunFig4(p Params) (*Fig4, error) {
	fleet, err := p.fleet()
	if err != nil {
		return nil, err
	}
	points, err := trace.LocalityChiSquare(fleet.Log(), p.Spec.Fault.Geometry.RowsPerBank, trace.DefaultThresholds())
	if err != nil {
		return nil, err
	}
	return &Fig4{Points: points}, nil
}

// Render writes the curve as a table.
func (f *Fig4) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Row Distance Threshold\tChi-Squared Value\tObserved Within\tExpected Within")
	for _, pt := range f.Points {
		fmt.Fprintf(tw, "%d\t%.1f\t%s\t%s\n", pt.Threshold, pt.ChiSquare, pct(pt.Observed), pct(pt.Expected))
	}
	return tw.Flush()
}

// Peak returns the threshold with the maximum statistic.
func (f *Fig4) Peak() int { return trace.PeakThreshold(f.Points) }
