// Package faultsim synthesises per-bank HBM error processes with the
// bank-level failure patterns the Cordial paper reports (Figure 3): single-row
// clustering, double-row clustering, half-total-row clustering, scattered,
// and whole-column. Because the paper's industrial dataset is proprietary,
// this simulator is the data substrate for the whole reproduction; its knobs
// are calibrated so the generated logs reproduce the published marginals —
// the pattern mix of Figure 3(b), the row-level sudden-UER ratio of Table I,
// and the 128-row locality peak of Figure 4.
//
// A faulty bank is generated in two steps: a spatial draw (which rows/columns
// carry uncorrectable errors, per the pattern geometry) and a temporal draw
// (when each error surfaces, whether precursor CEs/UEOs appear before the
// first UER, and how errors propagate outward through a cluster over time).
package faultsim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// Pattern enumerates the bank-level failure patterns of Figure 3(a).
type Pattern int

// Failure patterns. HalfTotalRow is the variant of double-row clustering in
// which the two clusters sit exactly half the bank apart; WholeColumn is the
// variant of the scattered pattern in which errors cover nearly all rows of
// one column.
const (
	PatternSingleRow Pattern = iota + 1
	PatternDoubleRow
	PatternHalfTotalRow
	PatternScattered
	PatternWholeColumn
)

// AllPatterns lists every pattern in Figure 3(b) order.
var AllPatterns = []Pattern{
	PatternSingleRow, PatternDoubleRow, PatternHalfTotalRow,
	PatternScattered, PatternWholeColumn,
}

// String returns the paper's name for the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternSingleRow:
		return "single-row clustering"
	case PatternDoubleRow:
		return "double-row clustering"
	case PatternHalfTotalRow:
		return "half total-row clustering"
	case PatternScattered:
		return "scattered"
	case PatternWholeColumn:
		return "whole column"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Class is the three-way grouping Cordial's pattern classifier predicts
// (§IV-C): the five generator patterns collapse into double-row clustering,
// single-row clustering, and scattered.
type Class int

// Classifier classes.
const (
	ClassSingleRow Class = iota + 1
	ClassDoubleRow
	ClassScattered
)

// AllClasses lists the classifier's classes in Table III order.
var AllClasses = []Class{ClassDoubleRow, ClassSingleRow, ClassScattered}

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case ClassSingleRow:
		return "single-row clustering"
	case ClassDoubleRow:
		return "double-row clustering"
	case ClassScattered:
		return "scattered"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassOf maps a generator pattern to the classifier class it belongs to:
// half-total-row is a double-row variant (§III-B) and whole-column is a
// scattered variant.
func ClassOf(p Pattern) Class {
	switch p {
	case PatternSingleRow:
		return ClassSingleRow
	case PatternDoubleRow, PatternHalfTotalRow:
		return ClassDoubleRow
	case PatternScattered, PatternWholeColumn:
		return ClassScattered
	default:
		panic(fmt.Sprintf("faultsim: ClassOf(%d)", int(p)))
	}
}

// IsAggregation reports whether the class is an aggregation pattern, for
// which Cordial triggers cross-row prediction and row sparing.
func (c Class) IsAggregation() bool { return c == ClassSingleRow || c == ClassDoubleRow }

// PatternWeights is the sampling distribution over patterns. Values are
// relative weights; they need not sum to 1.
type PatternWeights map[Pattern]float64

// DefaultPatternWeights reproduces the Figure 3(b) distribution:
// 68.2% single-row, 9.9% double-row, 7.3% half-total-row, 12.5% scattered,
// 2.1% whole-column.
func DefaultPatternWeights() PatternWeights {
	return PatternWeights{
		PatternSingleRow:    68.2,
		PatternDoubleRow:    9.9,
		PatternHalfTotalRow: 7.3,
		PatternScattered:    12.5,
		PatternWholeColumn:  2.1,
	}
}

// Sample draws a pattern according to the weights.
func (w PatternWeights) Sample(r *xrand.RNG) Pattern {
	weights := make([]float64, len(AllPatterns))
	for i, p := range AllPatterns {
		weights[i] = w[p]
	}
	return AllPatterns[r.WeightedChoice(weights)]
}

// Config holds every knob of the per-bank fault process. Construct with
// DefaultConfig and adjust; the zero value is not valid.
type Config struct {
	// Profile is the topology: its geometry bounds row/column draws, and its
	// layout checks every emitted address and keys a bank's error bits.
	Profile *hbm.Profile
	// Start is the beginning of the observation window.
	Start time.Time
	// Duration is the length of the observation window; fault onsets are
	// placed uniformly inside the first OnsetFraction of it so that the
	// error process has room to play out.
	Duration time.Duration
	// OnsetFraction in (0,1]: the fault onset is drawn uniformly from the
	// first OnsetFraction of the window.
	OnsetFraction float64

	// ClusterSigma is the standard deviation, in rows, of UER-row offsets
	// around a cluster centre. Successive same-cluster UER rows then differ
	// by ~sigma*sqrt(2). The chi-square locality statistic of Figure 4
	// peaks near twice the sigma, so the default of 64 places the peak at
	// the paper's 128-row threshold.
	ClusterSigma float64

	// DoubleRowGapMin/Max bound the row interval between the two clusters
	// of the double-row pattern.
	DoubleRowGapMin, DoubleRowGapMax int

	// UER-row count ranges per pattern (inclusive).
	SingleRowUERs, DoubleRowUERs, ScatteredUERs, WholeColumnUERs [2]int

	// SuddenRowProb is the probability that a UER row has no precursor
	// errors in the same row (Table I row level: 95.61%).
	SuddenRowProb float64
	// RowPrecursorCEs bounds the number of precursor CEs planted in a
	// non-sudden UER row before its first UER.
	RowPrecursorCEs [2]int
	// RowPrecursorUEOProb is the chance a non-sudden row also logs a UEO
	// between its CEs and its first UER.
	RowPrecursorUEOProb float64

	// Mean inter-arrival between successive UER rows, per class. The paper
	// observes aggregation faults erupt faster than scattered ones; the
	// temporal features feed on this difference.
	AggregationUERGap time.Duration
	ScatteredUERGap   time.Duration

	// Background CE/UEO activity within the faulty bank (beyond row
	// precursors): ranges per class. Scattered banks are noisier — the
	// count features feed on this difference.
	AggregationBgCEs [2]int
	ScatteredBgCEs   [2]int
	BgUEOProb        float64
	// BgBeforeOnsetProb is the chance that background activity begins
	// before the first UER (making the bank non-sudden even when all its
	// rows are sudden).
	BgBeforeOnsetProb float64

	// ScatteredBurstProb is the chance that a scattered-pattern bank
	// starts with a locally concentrated burst (its first few UER rows
	// close together) before dispersing across the bank. This is what
	// makes early scattered banks genuinely confusable with single-row
	// clustering (§IV-C: "when only a single UER is observed, it is
	// challenging to distinguish between aggregation and scattered").
	ScatteredBurstProb float64

	// AdjacentRowProb is the chance that a new failing row in an
	// aggregation pattern emerges immediately adjacent (within a few rows)
	// to a previously failed row, rather than independently around the
	// cluster centre. Sub-wordline-driver faults take out physical
	// neighbours; this tight component is what the neighbor-rows baseline
	// exploits (its field ICR of ~13% bounds the value from above).
	AdjacentRowProb float64
	// AdjacentRowMaxDist bounds the adjacency distance in rows.
	AdjacentRowMaxDist int

	// RowRepeatProb is the per-step chance that a failed row logs another
	// UER (geometric repeat count). Failed rows keep erroring in the field
	// until they are isolated; these repeats are what makes the blocks
	// near current error rows predictable.
	RowRepeatProb float64
	// RepeatGapMean is the mean interval between repeat UERs of one row.
	RepeatGapMean time.Duration
	// MaxRepeats bounds the repeat count of one row.
	MaxRepeats int

	// BenignCEs bounds the CE count of a benign (never-UER) bank.
	BenignCEs [2]int
	// BenignUEOProb is the chance a benign bank also logs a UEO.
	BenignUEOProb float64
}

// DefaultConfig returns the calibrated configuration for the given profile.
// The double-row gap range scales with the bank's row count (1/16 to 3/8 of
// it) so the two clusters stay well separated yet inside the bank on any
// registered topology; at the HBM2E default of 32768 rows this reproduces
// the calibrated [2048, 12288] range exactly.
func DefaultConfig(p *hbm.Profile) Config {
	gapMin := max(1, p.Geometry.RowsPerBank/16)
	gapMax := max(gapMin, p.Geometry.RowsPerBank*3/8)
	return Config{
		Profile:             p,
		Start:               time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		Duration:            30 * 24 * time.Hour,
		OnsetFraction:       0.6,
		ClusterSigma:        64,
		DoubleRowGapMin:     gapMin,
		DoubleRowGapMax:     gapMax,
		SingleRowUERs:       [2]int{3, 8},
		DoubleRowUERs:       [2]int{4, 10},
		ScatteredUERs:       [2]int{8, 20},
		WholeColumnUERs:     [2]int{30, 80},
		SuddenRowProb:       0.9561,
		RowPrecursorCEs:     [2]int{2, 8},
		RowPrecursorUEOProb: 0.5,
		AggregationUERGap:   6 * time.Hour,
		ScatteredUERGap:     18 * time.Hour,
		AggregationBgCEs:    [2]int{0, 6},
		ScatteredBgCEs:      [2]int{20, 60},
		BgUEOProb:           0.35,
		BgBeforeOnsetProb:   0.22,
		ScatteredBurstProb:  0.35,
		AdjacentRowProb:     0.10,
		AdjacentRowMaxDist:  4,
		RowRepeatProb:       0.55,
		RepeatGapMean:       12 * time.Hour,
		MaxRepeats:          5,
		BenignCEs:           [2]int{1, 12},
		BenignUEOProb:       0.05,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Profile == nil {
		return fmt.Errorf("faultsim: no topology profile")
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("faultsim: Duration must be positive, got %v", c.Duration)
	}
	if c.OnsetFraction <= 0 || c.OnsetFraction > 1 {
		return fmt.Errorf("faultsim: OnsetFraction %g out of (0,1]", c.OnsetFraction)
	}
	if c.ClusterSigma <= 0 {
		return fmt.Errorf("faultsim: ClusterSigma must be positive, got %g", c.ClusterSigma)
	}
	if c.DoubleRowGapMin <= 0 || c.DoubleRowGapMax < c.DoubleRowGapMin {
		return fmt.Errorf("faultsim: double-row gap range [%d,%d] invalid", c.DoubleRowGapMin, c.DoubleRowGapMax)
	}
	if c.DoubleRowGapMax >= c.Profile.Geometry.RowsPerBank {
		return fmt.Errorf("faultsim: DoubleRowGapMax %d must be below RowsPerBank %d", c.DoubleRowGapMax, c.Profile.Geometry.RowsPerBank)
	}
	for _, rg := range [][2]int{
		c.SingleRowUERs, c.DoubleRowUERs, c.ScatteredUERs, c.WholeColumnUERs,
		c.RowPrecursorCEs, c.AggregationBgCEs, c.ScatteredBgCEs, c.BenignCEs,
	} {
		if rg[0] < 0 || rg[1] < rg[0] {
			return fmt.Errorf("faultsim: count range [%d,%d] invalid", rg[0], rg[1])
		}
	}
	if c.SingleRowUERs[0] < 1 || c.DoubleRowUERs[0] < 2 || c.ScatteredUERs[0] < 1 || c.WholeColumnUERs[0] < 1 {
		return fmt.Errorf("faultsim: UER count minimums too small")
	}
	if c.SuddenRowProb < 0 || c.SuddenRowProb > 1 {
		return fmt.Errorf("faultsim: SuddenRowProb %g out of [0,1]", c.SuddenRowProb)
	}
	if c.ScatteredBurstProb < 0 || c.ScatteredBurstProb >= 1 {
		return fmt.Errorf("faultsim: ScatteredBurstProb %g out of [0,1)", c.ScatteredBurstProb)
	}
	if c.AdjacentRowProb < 0 || c.AdjacentRowProb >= 1 {
		return fmt.Errorf("faultsim: AdjacentRowProb %g out of [0,1)", c.AdjacentRowProb)
	}
	if c.AdjacentRowProb > 0 && c.AdjacentRowMaxDist < 1 {
		return fmt.Errorf("faultsim: AdjacentRowMaxDist must be positive when adjacency is on")
	}
	if c.RowRepeatProb < 0 || c.RowRepeatProb >= 1 {
		return fmt.Errorf("faultsim: RowRepeatProb %g out of [0,1)", c.RowRepeatProb)
	}
	if c.RowRepeatProb > 0 && (c.RepeatGapMean <= 0 || c.MaxRepeats < 1) {
		return fmt.Errorf("faultsim: repeat process needs positive RepeatGapMean and MaxRepeats")
	}
	return nil
}

// BankFault is the generated error process of one faulty bank, together with
// the ground truth labels the evaluation needs.
type BankFault struct {
	Bank    hbm.BankAddress
	Pattern Pattern
	// Cause is the physical root cause behind the pattern.
	Cause Cause
	// Events is the bank's full error log, sorted by time.
	Events []mcelog.Event
	// UERRows lists the distinct UER rows in order of their first UER.
	UERRows []int
	// UERTimes[i] is the time of the first UER in UERRows[i].
	UERTimes []time.Time
	// SuddenRow[i] reports whether UERRows[i] had no precursor error in
	// the same row before its first UER.
	SuddenRow []bool
}

// Class returns the classifier class of the bank's pattern.
func (b *BankFault) Class() Class { return ClassOf(b.Pattern) }

// Generator produces per-bank fault processes. It is not safe for concurrent
// use; create one per goroutine with its own RNG.
type Generator struct {
	cfg Config
	rng xrand.RNG
}

// NewGenerator validates cfg and returns a generator drawing randomness from
// its own copy of rng: a parent's Split child, or *xrand.New(seed).
func NewGenerator(cfg Config, rng xrand.RNG) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == (xrand.RNG{}) {
		return nil, fmt.Errorf("faultsim: zero RNG")
	}
	return &Generator{cfg: cfg, rng: rng}, nil
}

// Generate synthesises the fault process of one bank with the given pattern.
// Every emitted event is checked against the profile's geometry and address
// layout before it leaves the generator: a simulator bug that drew an
// out-of-range coordinate must surface here, not as a silently aliased packed
// address three codecs downstream.
func (g *Generator) Generate(bank hbm.BankAddress, p Pattern) (*BankFault, error) {
	rows := g.uerRows(p)
	if len(rows) == 0 {
		return nil, fmt.Errorf("faultsim: pattern %v produced no UER rows", p)
	}
	bf := g.schedule(bank, p, rows)
	bf.Cause = SampleCause(p, &g.rng)
	for i, ev := range bf.Events {
		if err := ev.Validate(g.cfg.Profile.Geometry); err != nil {
			return nil, fmt.Errorf("faultsim: generated event %d: %w", i, err)
		}
		if _, err := g.cfg.Profile.Layout.PackChecked(ev.Addr); err != nil {
			return nil, fmt.Errorf("faultsim: generated event %d: %w", i, err)
		}
	}
	return bf, nil
}

// GenerateSampled draws a pattern from weights and generates a bank fault.
func (g *Generator) GenerateSampled(bank hbm.BankAddress, w PatternWeights) (*BankFault, error) {
	return g.Generate(bank, w.Sample(&g.rng))
}

// uerRows draws the spatial layout: the ordered set of UER rows for the
// pattern, in the temporal order the rows will fail. Aggregation patterns
// then get the adjacency pass: some rows are rewritten to fail right next to
// an earlier row (§III-C error propagation).
func (g *Generator) uerRows(p Pattern) []int {
	c := &g.cfg
	geo := &c.Profile.Geometry
	switch p {
	case PatternSingleRow:
		n := g.rng.IntRange(c.SingleRowUERs[0], c.SingleRowUERs[1])
		center := g.rng.Intn(geo.RowsPerBank)
		return g.applyAdjacency(g.clusterRows(center, n))
	case PatternDoubleRow, PatternHalfTotalRow:
		n := g.rng.IntRange(c.DoubleRowUERs[0], c.DoubleRowUERs[1])
		var gap int
		if p == PatternHalfTotalRow {
			gap = geo.RowsPerBank / 2
		} else {
			gap = g.rng.IntRange(c.DoubleRowGapMin, c.DoubleRowGapMax)
		}
		c1 := g.rng.Intn(geo.RowsPerBank - gap)
		c2 := c1 + gap
		// Split rows between the two clusters, then interleave them in
		// failure order so the process alternates between clusters.
		n1 := n / 2
		if g.rng.Bool(0.5) {
			n1 = n - n1
		}
		// Adjacency applies within each cluster so the two clusters stay
		// separated by the sampled gap.
		a := g.applyAdjacency(g.clusterRows(c1, n1))
		b := g.applyAdjacency(g.clusterRows(c2, n-n1))
		return interleave(&g.rng, a, b)
	case PatternScattered:
		n := g.rng.IntRange(c.ScatteredUERs[0], c.ScatteredUERs[1])
		rows := g.distinctUniformRows(n)
		if g.rng.Bool(c.ScatteredBurstProb) && n >= 3 {
			// Local burst onset: the first three failures concentrate
			// around one spot before the fault disperses.
			seen := make(map[int]bool, n)
			for _, r := range rows {
				seen[r] = true
			}
			center := rows[0]
			for i := 1; i < 3; i++ {
				for attempt := 0; attempt < 8; attempt++ {
					cand := geo.ClampRow(center + int(math.Round(g.rng.Normal(0, c.ClusterSigma))))
					if !seen[cand] {
						delete(seen, rows[i])
						rows[i] = cand
						seen[cand] = true
						break
					}
				}
			}
		}
		return rows
	case PatternWholeColumn:
		n := g.rng.IntRange(c.WholeColumnUERs[0], c.WholeColumnUERs[1])
		return g.distinctUniformRows(n)
	default:
		panic(fmt.Sprintf("faultsim: uerRows(%d)", int(p)))
	}
}

// clusterRows draws n distinct rows normally distributed around center with
// ClusterSigma, in random failure order. Independent normal draws make the
// distance between consecutive failures |N(0, sigma*sqrt(2))|, which is the
// distribution the Figure 4 locality calibration relies on.
func (g *Generator) clusterRows(center, n int) []int {
	geo := &g.cfg.Profile.Geometry
	seen := make(map[int]bool, n)
	rows := make([]int, 0, n)
	for len(rows) < n {
		r := geo.ClampRow(center + int(math.Round(g.rng.Normal(0, g.cfg.ClusterSigma))))
		if seen[r] {
			// Clamping and collisions can exhaust a tight cluster;
			// widen the draw slightly rather than loop forever.
			r = geo.ClampRow(center + int(math.Round(g.rng.Normal(0, 3*g.cfg.ClusterSigma))))
			if seen[r] {
				continue
			}
		}
		seen[r] = true
		rows = append(rows, r)
	}
	return rows
}

// distinctUniformRows draws n distinct uniform rows in arbitrary order.
func (g *Generator) distinctUniformRows(n int) []int {
	geo := &g.cfg.Profile.Geometry
	if n > geo.RowsPerBank {
		n = geo.RowsPerBank
	}
	return g.rng.SampleInts(geo.RowsPerBank, n)
}

func interleave(r *xrand.RNG, a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		takeA := j >= len(b) || (i < len(a) && r.Bool(float64(len(a)-i)/float64(len(a)-i+len(b)-j)))
		if takeA {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// applyAdjacency rewrites some rows (from index 1 on) to sit within a few
// rows of an earlier row in the failure sequence, modelling SWD-style
// physical-neighbour propagation. Rows stay distinct.
func (g *Generator) applyAdjacency(rows []int) []int {
	c := &g.cfg
	if c.AdjacentRowProb <= 0 || len(rows) < 2 {
		return rows
	}
	seen := make(map[int]bool, len(rows))
	seen[rows[0]] = true
	for i := 1; i < len(rows); i++ {
		if g.rng.Bool(c.AdjacentRowProb) {
			base := rows[g.rng.Intn(i)]
			for attempt := 0; attempt < 8; attempt++ {
				off := g.rng.IntRange(1, c.AdjacentRowMaxDist)
				if g.rng.Bool(0.5) {
					off = -off
				}
				cand := c.Profile.Geometry.ClampRow(base + off)
				if !seen[cand] {
					rows[i] = cand
					break
				}
			}
		}
		seen[rows[i]] = true
	}
	return rows
}

// schedule assigns event times, plants precursors and background activity,
// and assembles the sorted event log plus ground truth.
func (g *Generator) schedule(bank hbm.BankAddress, p Pattern, rows []int) *BankFault {
	c := &g.cfg
	class := ClassOf(p)
	gap := c.AggregationUERGap
	if class == ClassScattered {
		gap = c.ScatteredUERGap
	}

	onsetSpan := time.Duration(float64(c.Duration) * c.OnsetFraction)
	onset := c.Start.Add(time.Duration(g.rng.Float64() * float64(onsetSpan)))
	end := c.Start.Add(c.Duration)

	bf := &BankFault{
		Bank: bank, Pattern: p,
		UERRows:   make([]int, 0, len(rows)),
		UERTimes:  make([]time.Time, 0, len(rows)),
		SuddenRow: make([]bool, 0, len(rows)),
	}
	events := make([]mcelog.Event, 0, 4*len(rows))
	kind := bitKindOf(p)

	// Whole-column faults pin every error to one column; other patterns
	// draw columns per event.
	fixedCol := -1
	if p == PatternWholeColumn {
		fixedCol = g.rng.Intn(c.Profile.Geometry.ColsPerBank)
	}
	col := func() int {
		if fixedCol >= 0 {
			return fixedCol
		}
		return g.rng.Intn(c.Profile.Geometry.ColsPerBank)
	}

	// First UERs per row, spaced by exponential inter-arrivals.
	t := onset
	for i, row := range rows {
		if i > 0 {
			t = t.Add(time.Duration(g.rng.Exp(1 / float64(gap))))
		}
		if t.After(end) {
			t = end // clamp the tail into the window
		}
		uerTime := t
		sudden := g.rng.Bool(c.SuddenRowProb)
		if !sudden {
			// Plant precursor CEs (and maybe a UEO) in the same row
			// during the hours before the first UER.
			nce := g.rng.IntRange(c.RowPrecursorCEs[0], c.RowPrecursorCEs[1])
			lead := time.Duration(g.rng.Float64()*48+2) * time.Hour
			start := uerTime.Add(-lead)
			if start.Before(c.Start) {
				start = c.Start
			}
			span := uerTime.Sub(start)
			for k := 0; k < nce; k++ {
				ts := start.Add(time.Duration(g.rng.Float64() * float64(span)))
				cc := col()
				events = append(events, mcelog.Event{
					Time: ts, Addr: hbm.CellInBank(bank, row, cc), Class: ecc.ClassCE,
					Bits: g.errBitsFor(bank, row, cc, ecc.ClassCE, kind),
				})
			}
			if g.rng.Bool(c.RowPrecursorUEOProb) {
				ts := start.Add(time.Duration(g.rng.Float64() * float64(span)))
				cc := col()
				events = append(events, mcelog.Event{
					Time: ts, Addr: hbm.CellInBank(bank, row, cc), Class: ecc.ClassUEO,
					Bits: g.errBitsFor(bank, row, cc, ecc.ClassUEO, kind),
				})
			}
		}
		uerCol := col()
		events = append(events, mcelog.Event{
			Time: uerTime, Addr: hbm.CellInBank(bank, row, uerCol), Class: ecc.ClassUER,
			Bits: g.errBitsFor(bank, row, uerCol, ecc.ClassUER, kind),
		})
		// Failed rows keep erroring until mitigated: a geometric train of
		// repeat UERs follows the first failure.
		repeat := uerTime
		for k := 0; k < c.MaxRepeats && g.rng.Bool(c.RowRepeatProb); k++ {
			repeat = repeat.Add(time.Duration(g.rng.Exp(1 / float64(c.RepeatGapMean))))
			if repeat.After(end) {
				break
			}
			rc := col()
			events = append(events, mcelog.Event{
				Time: repeat, Addr: hbm.CellInBank(bank, row, rc), Class: ecc.ClassUER,
				Bits: g.errBitsFor(bank, row, rc, ecc.ClassUER, kind),
			})
		}
		bf.UERRows = append(bf.UERRows, row)
		bf.UERTimes = append(bf.UERTimes, uerTime)
		bf.SuddenRow = append(bf.SuddenRow, sudden)
	}

	// Background CE/UEO activity within the bank.
	bgRange := c.AggregationBgCEs
	if class == ClassScattered {
		bgRange = c.ScatteredBgCEs
	}
	nbg := g.rng.IntRange(bgRange[0], bgRange[1])
	if nbg > 0 {
		bgStart := onset
		preOnset := g.rng.Bool(c.BgBeforeOnsetProb)
		if preOnset {
			back := time.Duration(g.rng.Float64()*72+1) * time.Hour
			bgStart = onset.Add(-back)
			if bgStart.Before(c.Start) {
				bgStart = c.Start
			}
		}
		span := end.Sub(bgStart)
		for k := 0; k < nbg; k++ {
			row := g.bgRow(p, rows)
			class := ecc.ClassCE
			if g.rng.Bool(c.BgUEOProb / float64(max(nbg, 1))) {
				class = ecc.ClassUEO
			}
			ts := bgStart.Add(time.Duration(g.rng.Float64() * float64(span)))
			if k == 0 && preOnset && onset.After(bgStart) {
				// Make the pre-onset draw real: the first background
				// event is guaranteed to precede the first UER, which
				// is what renders the bank non-sudden at bank level.
				ts = bgStart.Add(time.Duration(g.rng.Float64() * float64(onset.Sub(bgStart))))
			}
			bc := col()
			events = append(events, mcelog.Event{
				Time:  ts,
				Addr:  hbm.CellInBank(bank, row, bc),
				Class: class,
				Bits:  g.errBitsFor(bank, row, bc, class, kind),
			})
		}
	}

	mcelog.SortEvents(events)
	bf.Events = events
	return bf
}

// bgRow picks a row for background activity: near the clusters for
// aggregation patterns (corrected errors shadow the failing region), uniform
// for scattered ones. UER rows themselves are excluded — their precursor
// history is governed by SuddenRowProb, not by background noise.
func (g *Generator) bgRow(p Pattern, uerRows []int) int {
	geo := &g.cfg.Profile.Geometry
	for attempt := 0; ; attempt++ {
		var row int
		if ClassOf(p) == ClassScattered || attempt > 16 {
			row = g.rng.Intn(geo.RowsPerBank)
		} else {
			anchor := uerRows[g.rng.Intn(len(uerRows))]
			row = geo.ClampRow(anchor + int(math.Round(g.rng.Normal(0, 2*g.cfg.ClusterSigma))))
		}
		if !slices.Contains(uerRows, row) {
			return row
		}
	}
}

// GenerateBenign synthesises the error log of a healthy bank: a short burst
// of CEs (and rarely a UEO) at uniform addresses, no UERs. Correctable-error
// episodes in the field are bursty — a transient condition produces a train
// of CEs over hours, not a uniform trickle over the whole month — and the
// burstiness matters for Table I: whether a co-located benign bank makes a
// coarse-level entity "non-sudden" depends on whether its burst happened to
// precede the first UER. The events come back in mcelog.SortEvents order.
func (g *Generator) GenerateBenign(bank hbm.BankAddress) []mcelog.Event {
	c := &g.cfg
	n := g.rng.IntRange(c.BenignCEs[0], c.BenignCEs[1])
	burst := time.Duration(g.rng.Float64()*24+1) * time.Hour
	latestStart := c.Duration - burst
	if latestStart < 0 {
		latestStart = 0
		burst = c.Duration
	}
	burstStart := c.Start.Add(time.Duration(g.rng.Float64() * float64(latestStart)))
	stamp := func() time.Time {
		return burstStart.Add(time.Duration(g.rng.Float64() * float64(burst)))
	}
	events := make([]mcelog.Event, 0, n+1)
	for i := 0; i < n; i++ {
		// Draw order (time, row, column) matches the pre-error-bits code so
		// seeded streams replay byte-identically.
		ts := stamp()
		row, cc := g.rng.Intn(c.Profile.Geometry.RowsPerBank), g.rng.Intn(c.Profile.Geometry.ColsPerBank)
		events = append(events, mcelog.Event{
			Time:  ts,
			Addr:  hbm.CellInBank(bank, row, cc),
			Class: ecc.ClassCE,
			Bits:  g.errBitsFor(bank, row, cc, ecc.ClassCE, bitsBenign),
		})
	}
	if g.rng.Bool(c.BenignUEOProb) {
		ts := stamp()
		row, cc := g.rng.Intn(c.Profile.Geometry.RowsPerBank), g.rng.Intn(c.Profile.Geometry.ColsPerBank)
		events = append(events, mcelog.Event{
			Time:  ts,
			Addr:  hbm.CellInBank(bank, row, cc),
			Class: ecc.ClassUEO,
			Bits:  g.errBitsFor(bank, row, cc, ecc.ClassUEO, bitsBenign),
		})
	}
	mcelog.SortEvents(events)
	return events
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
