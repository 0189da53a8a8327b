// Package trace synthesises fleet-scale HBM error logs and implements the
// paper's empirical-study analyses over them: the per-micro-level sudden-UER
// ratios of Table I, the dataset summary of Table II, the bank failure
// pattern distribution of Figure 3(b), and the row-distance locality
// chi-square curve of Figure 4.
//
// A generated Fleet stands in for the proprietary industrial dataset: it
// places faulty banks (drawn from the Figure 3(b) pattern mix) and benign
// noisy banks across a simulated cluster, correlating "sick" regions so that
// the hierarchical sudden-ratio structure of Table I emerges (an entity at a
// coarse level is non-sudden if any of its many sub-entities logged an error
// before its first UER).
package trace

import (
	"fmt"
	"sync"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/stats"
	"cordial/internal/xrand"
)

// Spec configures fleet synthesis. Construct with DefaultSpec and adjust.
type Spec struct {
	// Fault is the per-bank fault process configuration.
	Fault faultsim.Config
	// Weights is the pattern sampling distribution (Figure 3(b) by default).
	Weights faultsim.PatternWeights
	// UERBanks is the number of banks given a UER failure pattern.
	UERBanks int
	// BenignBanks is the number of additional banks with only CE/UEO noise,
	// placed uniformly across the fleet.
	BenignBanks int
	// CompanionProbs gives, per hierarchy level, the probability that a
	// faulty bank spawns a benign noisy companion bank inside the same
	// level entity (but a different bank). These sick-region companions
	// create the rising non-sudden ratio at coarse levels in Table I.
	CompanionProbs map[hbm.Level]float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultSpec is DefaultSpecFor hbm2e over the geometry g. Bench-only until
// ROADMAP item 15.
func DefaultSpec(g hbm.Geometry) Spec {
	p := *hbm.HBM2E
	p.Geometry = g
	return DefaultSpecFor(&p)
}

// DefaultSpecFor returns a calibrated specification for the given profile.
// The default scale (300 faulty banks) keeps full-pipeline runs fast; scale
// UERBanks and BenignBanks together to approach the paper's dataset size.
// Companion probabilities follow the profile's hierarchy.
func DefaultSpecFor(p *hbm.Profile) Spec {
	return Spec{
		Fault:          faultsim.DefaultConfig(p),
		Weights:        faultsim.DefaultPatternWeights(),
		UERBanks:       300,
		BenignBanks:    2200,
		CompanionProbs: defaultCompanionProbs(p),
		Seed:           1,
	}
}

// defaultCompanionProbs assigns sick-region companion probabilities across
// the profile's hierarchy: strongest inside the bank group, moderate at
// the mid-packaging level (SID, or rank on DIMMs), and a small tail at the
// coarser levels.
func defaultCompanionProbs(p *hbm.Profile) map[hbm.Level]float64 {
	for _, l := range p.Levels {
		if l == hbm.LevelRank {
			// DIMM hierarchy: socket → channel → DIMM → rank → device.
			return map[hbm.Level]float64{
				hbm.LevelBankGroup: 0.10,
				hbm.LevelDevice:    0.02,
				hbm.LevelRank:      0.05,
				hbm.LevelHBM:       0.02,
				hbm.LevelChannel:   0.02,
				hbm.LevelNPU:       0.02,
			}
		}
	}
	return map[hbm.Level]float64{
		hbm.LevelBankGroup:     0.10,
		hbm.LevelPseudoChannel: 0.02,
		hbm.LevelSID:           0.05,
		hbm.LevelHBM:           0.02,
		hbm.LevelNPU:           0.02,
	}
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	if s.UERBanks < 0 || s.BenignBanks < 0 {
		return fmt.Errorf("trace: negative bank counts (%d, %d)", s.UERBanks, s.BenignBanks)
	}
	if s.UERBanks+s.BenignBanks > s.Fault.Profile.Geometry.TotalBanks() {
		return fmt.Errorf("trace: %d banks requested but fleet has only %d",
			s.UERBanks+s.BenignBanks, s.Fault.Profile.Geometry.TotalBanks())
	}
	for l, p := range s.CompanionProbs {
		if p < 0 || p > 1 {
			return fmt.Errorf("trace: companion probability %g for %v out of [0,1]", p, l)
		}
	}
	return nil
}

// Fleet is a synthesised dataset: ground truth plus the fleet's error log,
// which Log merges from the banks' runs on first use.
type Fleet struct {
	Spec Spec
	// Faults holds the ground truth of every faulty bank, in generation
	// order.
	Faults []*faultsim.BankFault
	// BenignBankKeys lists the bank keys of benign noisy banks.
	BenignBankKeys []uint64

	logOnce sync.Once
	// runs holds every bank's sorted events, in generation order, until
	// Log merges them into log.
	runs [][]mcelog.Event
	log  *mcelog.Log
}

// Log returns the fleet-wide error log, sorted by time. The first call
// merges the banks' runs and releases them; later calls, from any
// goroutine, return the same log. A caller that reads only the ground
// truth never pays for the merge.
func (f *Fleet) Log() *mcelog.Log {
	f.logOnce.Do(func() {
		f.log = mcelog.Merge(f.runs)
		f.runs = nil
	})
	return f.log
}

// Generate synthesises a fleet according to spec, under its Fault.Profile.
func Generate(spec Spec) (*Fleet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(spec.Seed)
	gen, err := faultsim.NewGenerator(spec.Fault, rng.Split())
	if err != nil {
		return nil, err
	}
	prof := spec.Fault.Profile
	geo := prof.Geometry

	used := make(map[uint64]bool)
	pickFreshBank := func(draw func() hbm.BankAddress) (hbm.BankAddress, bool) {
		for attempt := 0; attempt < 64; attempt++ {
			b := draw()
			if k := prof.Layout.PackBank(b); !used[k] {
				used[k] = true
				return b, true
			}
		}
		return hbm.BankAddress{}, false
	}

	fleet := &Fleet{Spec: spec}
	// Every bank's events arrive sorted; Log merges them on first use.
	runs := make([][]mcelog.Event, 0, spec.UERBanks+spec.BenignBanks)

	// Companion draws walk the profile's hierarchy fine to coarse, visiting
	// only the levels the spec assigns a probability — same visit order the
	// calibrated HBM2E default always used.
	var companionLevels []hbm.Level
	profileLevels := prof.Levels
	for i := len(profileLevels) - 1; i >= 0; i-- {
		if _, ok := spec.CompanionProbs[profileLevels[i]]; ok {
			companionLevels = append(companionLevels, profileLevels[i])
		}
	}

	// Faulty banks with sick-region companions.
	for i := 0; i < spec.UERBanks; i++ {
		bank, ok := pickFreshBank(func() hbm.BankAddress { return hbm.RandomBank(geo, rng) })
		if !ok {
			return nil, fmt.Errorf("trace: could not place faulty bank %d", i)
		}
		bf, err := gen.GenerateSampled(bank, spec.Weights)
		if err != nil {
			return nil, err
		}
		fleet.Faults = append(fleet.Faults, bf)
		runs = append(runs, bf.Events)

		for _, level := range companionLevels {
			if !rng.Bool(spec.CompanionProbs[level]) {
				continue
			}
			level := level
			companion, ok := pickFreshBank(func() hbm.BankAddress {
				return prof.RandomBankWithin(rng, bank, level)
			})
			if !ok {
				continue // sick region saturated; skip rather than fail
			}
			runs = append(runs, gen.GenerateBenign(companion))
			fleet.BenignBankKeys = append(fleet.BenignBankKeys, prof.Layout.PackBank(companion))
		}
	}

	// Independent benign banks.
	for i := 0; i < spec.BenignBanks; i++ {
		bank, ok := pickFreshBank(func() hbm.BankAddress { return hbm.RandomBank(geo, rng) })
		if !ok {
			return nil, fmt.Errorf("trace: could not place benign bank %d", i)
		}
		runs = append(runs, gen.GenerateBenign(bank))
		fleet.BenignBankKeys = append(fleet.BenignBankKeys, prof.Layout.PackBank(bank))
	}

	fleet.runs = runs
	return fleet, nil
}

// SuddenStats reports, for one micro-level, how many level entities had a
// sudden first UER (no prior error anywhere in the entity) versus a
// non-sudden one. PredictableRatio is non-sudden / (sudden + non-sudden) —
// Table I's rightmost column.
type SuddenStats struct {
	Level     hbm.Level
	Sudden    int
	NonSudden int
}

// PredictableRatio returns the fraction of entities whose first UER had
// in-entity precursors.
func (s SuddenStats) PredictableRatio() float64 {
	total := s.Sudden + s.NonSudden
	if total == 0 {
		return 0
	}
	return float64(s.NonSudden) / float64(total)
}

// SuddenByLevel computes Table I from a log: for every level the profile
// reports, each entity with at least one UER is sudden if no CE or UEO
// anywhere in the entity precedes its first UER.
func SuddenByLevel(p *hbm.Profile, log *mcelog.Log) []SuddenStats {
	events := log.Events()
	levels := p.TableLevels
	out := make([]SuddenStats, 0, len(levels))
	for _, level := range levels {
		firstUER := make(map[uint64]time.Time)
		for _, e := range events {
			if e.Class != ecc.ClassUER {
				continue
			}
			k := p.Layout.EntityKey(e.Addr, level)
			if t, ok := firstUER[k]; !ok || e.Time.Before(t) {
				firstUER[k] = e.Time
			}
		}
		nonSudden := make(map[uint64]bool)
		for _, e := range events {
			if e.Class == ecc.ClassUER {
				continue
			}
			k := p.Layout.EntityKey(e.Addr, level)
			if t, ok := firstUER[k]; ok && e.Time.Before(t) {
				nonSudden[k] = true
			}
		}
		s := SuddenStats{Level: level}
		for k := range firstUER {
			if nonSudden[k] {
				s.NonSudden++
			} else {
				s.Sudden++
			}
		}
		out = append(out, s)
	}
	return out
}

// LevelSummary reports, for one micro-level, how many entities logged each
// error class and how many logged anything — Table II's columns.
type LevelSummary struct {
	Level   hbm.Level
	WithCE  int
	WithUEO int
	WithUER int
	Total   int
}

// SummaryByLevel computes Table II from a log, over the profile's reported
// levels.
func SummaryByLevel(p *hbm.Profile, log *mcelog.Log) []LevelSummary {
	levels := p.TableLevels
	out := make([]LevelSummary, 0, len(levels))
	for _, level := range levels {
		out = append(out, LevelSummary{
			Level:   level,
			WithCE:  log.Entities(p, level, ecc.ClassCE),
			WithUEO: log.Entities(p, level, ecc.ClassUEO),
			WithUER: log.Entities(p, level, ecc.ClassUER),
			Total:   log.Entities(p, level),
		})
	}
	return out
}

// PatternShare is one slice of the Figure 3(b) pie.
type PatternShare struct {
	Pattern faultsim.Pattern
	Count   int
	Share   float64 // fraction of faulty banks, in [0,1]
}

// PatternDistribution tallies the ground-truth pattern mix of a fleet —
// Figure 3(b).
func PatternDistribution(faults []*faultsim.BankFault) []PatternShare {
	counts := make(map[faultsim.Pattern]int)
	for _, f := range faults {
		counts[f.Pattern]++
	}
	total := len(faults)
	out := make([]PatternShare, 0, len(faultsim.AllPatterns))
	for _, p := range faultsim.AllPatterns {
		share := 0.0
		if total > 0 {
			share = float64(counts[p]) / float64(total)
		}
		out = append(out, PatternShare{Pattern: p, Count: counts[p], Share: share})
	}
	return out
}

// LocalityPoint is one point of the Figure 4 curve: the chi-square statistic
// of "next UER within Threshold rows of the current UER row" against the
// uniform-placement expectation.
type LocalityPoint struct {
	Threshold int
	ChiSquare float64
	// Observed is the fraction of successive UER-row pairs within the
	// threshold.
	Observed float64
	// Expected is the fraction expected under uniform random placement.
	Expected float64
	// Pairs is the number of successive pairs measured.
	Pairs int
}

// DefaultThresholds are the Figure 4 x-axis values: powers of two from 4
// (2^2) to 2048 (2^11).
func DefaultThresholds() []int {
	out := make([]int, 0, 10)
	for d := 4; d <= 2048; d *= 2 {
		out = append(out, d)
	}
	return out
}

// LocalityChiSquare computes the Figure 4 curve from a log of p's banks. For every bank
// with at least two UER rows, successive first-UER rows (in time order) form
// pairs; for each threshold d the observed count of pairs within d rows is
// tested against the count expected if the next row were placed uniformly at
// random in the bank.
func LocalityChiSquare(p *hbm.Profile, log *mcelog.Log, rowsPerBank int, thresholds []int) ([]LocalityPoint, error) {
	if rowsPerBank < 2 {
		return nil, fmt.Errorf("trace: rowsPerBank %d too small", rowsPerBank)
	}
	if len(thresholds) == 0 {
		return nil, fmt.Errorf("trace: no thresholds")
	}
	type pair struct{ from, dist int }
	var pairs []pair
	for _, events := range log.FilterClass(ecc.ClassUER).GroupByBank(p) {
		// events preserve log order; ensure time order then derive
		// first-UER row sequence.
		mcelog.SortEvents(events)
		seen := make(map[int]bool)
		var rows []int
		for _, e := range events {
			if !seen[e.Addr.Row] {
				seen[e.Addr.Row] = true
				rows = append(rows, e.Addr.Row)
			}
		}
		for i := 1; i < len(rows); i++ {
			d := rows[i] - rows[i-1]
			if d < 0 {
				d = -d
			}
			pairs = append(pairs, pair{from: rows[i-1], dist: d})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("trace: no successive UER pairs in log")
	}

	out := make([]LocalityPoint, 0, len(thresholds))
	for _, d := range thresholds {
		if d <= 0 {
			return nil, fmt.Errorf("trace: non-positive threshold %d", d)
		}
		observed := 0.0
		expected := 0.0
		for _, p := range pairs {
			if p.dist <= d {
				observed++
			}
			// Probability a uniform random distinct row lands within d
			// of p.from: window size clipped to the bank, minus the row
			// itself.
			lo := p.from - d
			if lo < 0 {
				lo = 0
			}
			hi := p.from + d
			if hi > rowsPerBank-1 {
				hi = rowsPerBank - 1
			}
			expected += float64(hi-lo) / float64(rowsPerBank-1)
		}
		n := float64(len(pairs))
		chi, _, err := stats.ChiSquareGoodnessOfFit(
			[]float64{observed, n - observed},
			[]float64{expected, n - expected},
		)
		if err != nil {
			return nil, fmt.Errorf("trace: threshold %d: %w", d, err)
		}
		out = append(out, LocalityPoint{
			Threshold: d,
			ChiSquare: chi,
			Observed:  observed / n,
			Expected:  expected / n,
			Pairs:     len(pairs),
		})
	}
	return out, nil
}

// PeakThreshold returns the threshold with the largest chi-square value.
func PeakThreshold(points []LocalityPoint) int {
	best, bestChi := 0, -1.0
	for _, p := range points {
		if p.ChiSquare > bestChi {
			best, bestChi = p.Threshold, p.ChiSquare
		}
	}
	return best
}
