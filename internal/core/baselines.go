package core

import (
	"fmt"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// NeighborRowsStrategy is the industrial baseline of §V-B: when a UER row is
// identified, isolate the Radius rows on each side of it (8 adjacent rows at
// the paper's radius of 4), hoping to contain propagation.
type NeighborRowsStrategy struct {
	// Radius is the number of rows isolated on each side (default 4).
	Radius int
	// Geometry clips the isolated rows.
	Geometry hbm.Geometry
	// Block is used only to express the heuristic as a block prediction
	// for the Table IV block metrics; it must match the evaluation spec.
	Block features.BlockSpec
}

var _ QuietStrategy = (*NeighborRowsStrategy)(nil)

// Name returns the paper's name for the baseline.
func (s *NeighborRowsStrategy) Name() string { return "Neighbor Rows" }

// NewSession returns per-bank state.
func (s *NeighborRowsStrategy) NewSession(bank hbm.BankAddress) Session {
	r := s.Radius
	if r <= 0 {
		r = 4
	}
	return &neighborSession{strategy: s, radius: r}
}

// ResumeSession is NewSession: a session decides at UERs alone and keeps
// nothing of the events before them.
func (s *NeighborRowsStrategy) ResumeSession(bank hbm.BankAddress, _ []features.Obs) Session {
	return s.NewSession(bank)
}

// RestoreSession is NewSession: a session's image is empty.
func (s *NeighborRowsStrategy) RestoreSession(bank hbm.BankAddress, data []byte) (Session, error) {
	if len(data) != 0 {
		return nil, fmt.Errorf("core: a %s session image of %d bytes, want none", s.Name(), len(data))
	}
	return s.NewSession(bank), nil
}

type neighborSession struct {
	baselineSession
	strategy *NeighborRowsStrategy
	radius   int
}

// EncodeState is the empty image: the session holds nothing of its bank.
func (s *neighborSession) EncodeState() ([]byte, error) { return nil, nil }

func (s *neighborSession) OnEvent(e mcelog.Event) Decision { return s.Decide(e, nil) }

// Decide isolates the rows around a UER. The decision is always the caller's:
// buf is not used.
func (s *neighborSession) Decide(e mcelog.Event, _ *DecisionBuffer) Decision {
	if e.Class != ecc.ClassUER {
		return Decision{}
	}
	anchor := e.Addr.Row
	var rows []int
	for r := anchor - s.radius; r <= anchor+s.radius; r++ {
		if r == anchor || r < 0 || r >= s.strategy.Geometry.RowsPerBank {
			continue
		}
		rows = append(rows, r)
	}
	// Express the heuristic in block terms: blocks overlapping the
	// isolated neighbourhood count as predicted-positive.
	d := Decision{IsolateRows: rows}
	if spec := s.strategy.Block; spec.WindowRadius > 0 {
		mask := make([]bool, spec.NumBlocks())
		for b := range mask {
			lo, hi := spec.BlockRange(anchor, b)
			mask[b] = hi >= anchor-s.radius && lo <= anchor+s.radius
		}
		d.Blocks = &BlockPrediction{AnchorRow: anchor, Predicted: mask}
	}
	return d
}

// InRowStrategy is the conventional in-row prediction paradigm the paper
// argues against (§II-C): a row is predicted to fail only when it has shown
// precursor errors, so the row is isolated as soon as it logs a CE or UEO.
// Its coverage is bounded by the non-sudden ratio — 4.39% at row level in
// Table I — which is the paper's motivating observation.
type InRowStrategy struct {
	Geometry hbm.Geometry
}

var _ Strategy = (*InRowStrategy)(nil)

// Name returns the paradigm's name.
func (s *InRowStrategy) Name() string { return inRowName }

const inRowName = "In-row"

// NewSession returns per-bank state.
func (s *InRowStrategy) NewSession(bank hbm.BankAddress) Session {
	return &inRowSession{}
}

// RestoreSession fails: an In-row session has no image.
func (s *InRowStrategy) RestoreSession(hbm.BankAddress, []byte) (Session, error) {
	return nil, noImage(inRowName)
}

type inRowSession struct {
	baselineSession
	isolated map[int]bool
}

// EncodeState fails: the serving engine checkpoints no In-row session.
func (s *inRowSession) EncodeState() ([]byte, error) { return nil, noImage(inRowName) }

func (s *inRowSession) OnEvent(e mcelog.Event) Decision { return s.Decide(e, nil) }

// Decide isolates a row at its first CE or UEO; buf is not used.
func (s *inRowSession) Decide(e mcelog.Event, _ *DecisionBuffer) Decision {
	if e.Class != ecc.ClassCE && e.Class != ecc.ClassUEO {
		return Decision{}
	}
	if s.isolated == nil {
		s.isolated = make(map[int]bool)
	}
	if s.isolated[e.Addr.Row] {
		return Decision{}
	}
	s.isolated[e.Addr.Row] = true
	return Decision{IsolateRows: []int{e.Addr.Row}}
}

// baselineSession supplies the Session methods of a baseline, which assigns
// no class and holds no feature state.
type baselineSession struct{}

func (baselineSession) Class() (faultsim.Class, bool) { return 0, false }

func (baselineSession) StateFootprint() (features.StateFootprint, bool) {
	return features.StateFootprint{}, false
}

// noImage is the error of checkpointing a session of a strategy whose sessions
// have no image: In-row and Calchas, which no serving program runs.
func noImage(strategy string) error {
	return fmt.Errorf("core: %s sessions cannot be checkpointed", strategy)
}
