package experiments

import (
	"fmt"
	"io"
	"math"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

// GeneratorStats summarises one generation mode's log structure.
type GeneratorStats struct {
	Mode string
	// Banks generated.
	Banks int
	// MeanUERRows is the average distinct UER rows per bank.
	MeanUERRows float64
	// SuddenRatio is the fraction of UER rows without in-row precursors.
	SuddenRatio float64
	// Within128 is the fraction of successive first-UER pairs within 128
	// rows (the Figure 4 anchor).
	Within128 float64
	// MeanClusterSpan is the average max-min UER row distance per bank.
	MeanClusterSpan float64
	// UEOShare is the UEO fraction of all uncorrectable events.
	UEOShare float64
}

// GeneratorValidation compares the calibrated fast path against the
// first-principles physical path (faults → SEC-DED → scrubber/demand) on the
// single-row pattern. Their logs emerge from entirely different code, so
// agreement on the structural statistics validates both.
type GeneratorValidation struct {
	Fast     GeneratorStats
	Physical GeneratorStats
}

// RunGeneratorValidation generates banks through both paths and summarises.
func RunGeneratorValidation(p Params, banks int) (*GeneratorValidation, error) {
	if banks < 10 {
		return nil, fmt.Errorf("experiments: validation needs ≥10 banks, got %d", banks)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := &GeneratorValidation{}

	fastGen, err := faultsim.NewGenerator(p.Spec.Fault, *xrand.New(p.Spec.Seed + 1))
	if err != nil {
		return nil, err
	}
	fast, err := collectStats("fast", banks, func() (*faultsim.BankFault, error) {
		return fastGen.Generate(hbm.BankAddress{}, faultsim.PatternSingleRow)
	})
	if err != nil {
		return nil, err
	}
	out.Fast = fast

	physGen, err := faultsim.NewGenerator(p.Spec.Fault, *xrand.New(p.Spec.Seed + 2))
	if err != nil {
		return nil, err
	}
	pcfg := faultsim.DefaultPhysicalConfig()
	physical, err := collectStats("physical", banks, func() (*faultsim.BankFault, error) {
		return physGen.GeneratePhysical(hbm.BankAddress{}, faultsim.PatternSingleRow, pcfg)
	})
	if err != nil {
		return nil, err
	}
	out.Physical = physical
	return out, nil
}

func collectStats(mode string, banks int, gen func() (*faultsim.BankFault, error)) (GeneratorStats, error) {
	s := GeneratorStats{Mode: mode, Banks: banks}
	var totalRows, sudden, totalSudden int
	var pairs, within int
	var spanSum float64
	var ueos, uces int
	for i := 0; i < banks; i++ {
		bf, err := gen()
		if err != nil {
			return s, err
		}
		totalRows += len(bf.UERRows)
		for _, sd := range bf.SuddenRow {
			totalSudden++
			if sd {
				sudden++
			}
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
		spanSum += float64(hi - lo)
		for j := 1; j < len(bf.UERRows); j++ {
			pairs++
			if abs(bf.UERRows[j]-bf.UERRows[j-1]) <= 128 {
				within++
			}
		}
		for _, e := range bf.Events {
			switch e.Class {
			case ecc.ClassUEO:
				ueos++
				uces++
			case ecc.ClassUER:
				uces++
			}
		}
	}
	s.MeanUERRows = float64(totalRows) / float64(banks)
	if totalSudden > 0 {
		s.SuddenRatio = float64(sudden) / float64(totalSudden)
	}
	if pairs > 0 {
		s.Within128 = float64(within) / float64(pairs)
	}
	s.MeanClusterSpan = spanSum / float64(banks)
	if uces > 0 {
		s.UEOShare = float64(ueos) / float64(uces)
	}
	return s, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Render writes both modes side by side.
func (v *GeneratorValidation) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Statistic\tFast path\tPhysical path")
	rows := []struct {
		name  string
		f, ph float64
		pctFn bool
	}{
		{"mean UER rows per bank", v.Fast.MeanUERRows, v.Physical.MeanUERRows, false},
		{"sudden row ratio", v.Fast.SuddenRatio, v.Physical.SuddenRatio, true},
		{"successive pairs within 128", v.Fast.Within128, v.Physical.Within128, true},
		{"mean cluster span (rows)", v.Fast.MeanClusterSpan, v.Physical.MeanClusterSpan, false},
		{"UEO share of UCEs", v.Fast.UEOShare, v.Physical.UEOShare, true},
	}
	for _, r := range rows {
		if r.pctFn {
			fmt.Fprintf(tw, "%s\t%s\t%s\n", r.name, pct(r.f), pct(r.ph))
		} else {
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\n", r.name, r.f, r.ph)
		}
	}
	return tw.Flush()
}

// Agree reports whether the two modes' key locality statistics agree within
// the tolerance (fractional for spans, absolute for ratios).
func (v *GeneratorValidation) Agree(tol float64) bool {
	if math.Abs(v.Fast.Within128-v.Physical.Within128) > tol {
		return false
	}
	if math.Abs(v.Fast.SuddenRatio-v.Physical.SuddenRatio) > tol {
		return false
	}
	if v.Fast.MeanClusterSpan <= 0 {
		return false
	}
	rel := math.Abs(v.Fast.MeanClusterSpan-v.Physical.MeanClusterSpan) / v.Fast.MeanClusterSpan
	return rel <= 3*tol
}
