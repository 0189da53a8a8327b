package faultsim

import (
	"fmt"
	"sort"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// PhysicalConfig tunes the first-principles generation mode: instead of
// writing CE/UEO/UER classes into the log directly, physical faults are
// planted on codewords and the log emerges from a patrol scrubber and a
// demand-access process running against the real SEC-DED decoder
// (internal/ecc). It is slower than the calibrated fast path but validates
// it: the same spatial patterns must produce the same log structure when
// every event goes through actual ECC classification.
type PhysicalConfig struct {
	// ScrubInterval is the patrol scrubber's full-pass period (§II-B).
	ScrubInterval time.Duration
	// DemandRate is the mean demand-access rate per faulty word, per hour.
	DemandRate float64
}

// DefaultPhysicalConfig returns a 24h scrub period (typical for patrol
// scrubbing) with a few demand touches per day on hot words.
func DefaultPhysicalConfig() PhysicalConfig {
	return PhysicalConfig{
		ScrubInterval: 24 * time.Hour,
		DemandRate:    0.2,
	}
}

// Validate checks the configuration.
func (c PhysicalConfig) Validate() error {
	if c.ScrubInterval <= 0 {
		return fmt.Errorf("faultsim: scrub interval must be positive, got %v", c.ScrubInterval)
	}
	if c.DemandRate <= 0 {
		return fmt.Errorf("faultsim: demand rate must be positive, got %g", c.DemandRate)
	}
	return nil
}

// wordIndex packs (row, col) into the FaultMap's word key.
func (g *Generator) wordIndex(row, col int) uint64 {
	return uint64(row)*uint64(g.cfg.Profile.Geometry.ColsPerBank) + uint64(col)
}

func (g *Generator) wordRow(word uint64) int {
	return int(word / uint64(g.cfg.Profile.Geometry.ColsPerBank))
}

func (g *Generator) wordCol(word uint64) int {
	return int(word % uint64(g.cfg.Profile.Geometry.ColsPerBank))
}

// GeneratePhysical synthesises a bank fault through the ECC layer: the
// pattern's UER rows receive stuck multi-bit faults (beyond SEC-DED's
// correction capability, like SWD malfunctions), non-sudden rows get stuck
// single-bit precursors first, and background noise is planted as transient
// single-bit faults. A patrol scrubber and a Poisson demand-access process
// then read the faulty words; every logged event is the classified outcome
// of a real decode.
func (g *Generator) GeneratePhysical(bank hbm.BankAddress, p Pattern, pcfg PhysicalConfig) (*BankFault, error) {
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	c := &g.cfg
	rows := g.uerRows(p)
	if len(rows) == 0 {
		return nil, fmt.Errorf("faultsim: pattern %v produced no UER rows", p)
	}

	gap := c.AggregationUERGap
	if ClassOf(p) == ClassScattered {
		gap = c.ScatteredUERGap
	}
	onsetSpan := time.Duration(float64(c.Duration) * c.OnsetFraction)
	onset := c.Start.Add(time.Duration(g.rng.Float64() * float64(onsetSpan)))
	end := c.Start.Add(c.Duration)

	var fm ecc.FaultMap
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

	// Plant the per-row fault processes.
	type rowPlan struct {
		row    int
		onset  time.Time
		sudden bool
	}
	plans := make([]rowPlan, 0, len(rows))
	t := onset
	for i, row := range rows {
		if i > 0 {
			t = t.Add(time.Duration(g.rng.Exp(1 / float64(gap))))
		}
		if t.After(end) {
			t = end
		}
		sudden := g.rng.Bool(c.SuddenRowProb)
		plans = append(plans, rowPlan{row: row, onset: t, sudden: sudden})

		// The uncorrectable defect: a stuck double-bit fault (SWD-style
		// malfunction beyond SEC-DED).
		bitA := g.rng.Intn(ecc.TotalBits)
		bitB := (bitA + 1 + g.rng.Intn(ecc.TotalBits-1)) % ecc.TotalBits
		if err := fm.AddFault(g.wordIndex(row, col()), ecc.Fault{
			Bits:  []int{bitA, bitB},
			Kind:  ecc.FaultStuck,
			Onset: t,
		}); err != nil {
			return nil, err
		}
		if !sudden {
			// Precursor: a stuck single-bit weak cell in the same row,
			// hours before the defect goes uncorrectable.
			lead := time.Duration(g.rng.Float64()*48+2) * time.Hour
			pOnset := t.Add(-lead)
			if pOnset.Before(c.Start) {
				pOnset = c.Start
			}
			if err := fm.AddFault(g.wordIndex(row, col()), ecc.Fault{
				Bits:  []int{g.rng.Intn(ecc.TotalBits)},
				Kind:  ecc.FaultStuck,
				Onset: pOnset,
			}); err != nil {
				return nil, err
			}
		}
	}

	// Background transient single-bit faults near the failing region.
	bgRange := c.AggregationBgCEs
	if ClassOf(p) == ClassScattered {
		bgRange = c.ScatteredBgCEs
	}
	nbg := g.rng.IntRange(bgRange[0], bgRange[1])
	for k := 0; k < nbg; k++ {
		row := g.bgRow(p, rows)
		ts := onset.Add(time.Duration(g.rng.Float64() * float64(end.Sub(onset))))
		if err := fm.AddFault(g.wordIndex(row, col()), ecc.Fault{
			Bits:  []int{g.rng.Intn(ecc.TotalBits)},
			Kind:  ecc.FaultTransient,
			Onset: ts,
		}); err != nil {
			return nil, err
		}
	}

	// Drive the fault map: interleave scrub passes and per-word Poisson
	// demand accesses in time order.
	type access struct {
		at     time.Time
		word   uint64
		demand bool
	}
	var schedule []access
	for ts := c.Start; !ts.After(end); ts = ts.Add(pcfg.ScrubInterval) {
		for _, w := range fm.FaultyWords() {
			schedule = append(schedule, access{at: ts, word: w})
		}
	}
	for _, w := range fm.FaultyWords() {
		ts := c.Start
		for {
			ts = ts.Add(time.Duration(g.rng.Exp(pcfg.DemandRate / float64(time.Hour))))
			if ts.After(end) {
				break
			}
			schedule = append(schedule, access{at: ts, word: w, demand: true})
		}
	}
	sort.Slice(schedule, func(i, j int) bool {
		if !schedule[i].at.Equal(schedule[j].at) {
			return schedule[i].at.Before(schedule[j].at)
		}
		return schedule[i].word < schedule[j].word
	})

	bf := &BankFault{Bank: bank, Pattern: p, Cause: SampleCause(p, &g.rng)}
	events := make([]mcelog.Event, 0, len(schedule)/4)
	firstUER := make(map[int]time.Time)
	for _, a := range schedule {
		kind := ecc.AccessPatrolScrub
		if a.demand {
			kind = ecc.AccessDemand
		}
		class := fm.Read(a.word, a.at, kind)
		if class == ecc.ClassNone {
			continue
		}
		row := g.wordRow(a.word)
		events = append(events, mcelog.Event{
			Time:  a.at,
			Addr:  hbm.CellInBank(bank, row, g.wordCol(a.word)),
			Class: class,
		})
		if class == ecc.ClassUER {
			if _, seen := firstUER[row]; !seen {
				firstUER[row] = a.at
			}
		}
	}

	// Ground truth: rows whose defect was actually hit by a demand access,
	// in first-UER order. (A defect no demand read ever touched produces
	// no UER — exactly as in the field.)
	type hit struct {
		row int
		at  time.Time
	}
	var hits []hit
	for row, at := range firstUER {
		hits = append(hits, hit{row: row, at: at})
	}
	sort.Slice(hits, func(i, j int) bool {
		if !hits[i].at.Equal(hits[j].at) {
			return hits[i].at.Before(hits[j].at)
		}
		return hits[i].row < hits[j].row
	})
	suddenByRow := make(map[int]bool, len(plans))
	for _, pl := range plans {
		suddenByRow[pl.row] = pl.sudden
	}
	for _, h := range hits {
		bf.UERRows = append(bf.UERRows, h.row)
		bf.UERTimes = append(bf.UERTimes, h.at)
		bf.SuddenRow = append(bf.SuddenRow, suddenByRow[h.row])
	}
	if len(bf.UERRows) == 0 {
		return nil, fmt.Errorf("faultsim: no demand access ever hit a defect; raise DemandRate or Duration")
	}

	mcelog.SortEvents(events)
	bf.Events = mcelog.DedupeEvents(events)
	return bf, nil
}
