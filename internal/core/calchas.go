package core

import (
	"fmt"
	"log/slog"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/mltree"
	"cordial/internal/xrand"
)

// Calchas is a learned in-row baseline modelled after the hierarchical HBM
// failure predictor the paper compares against conceptually (§I, [5]): when
// a row shows precursor errors, a classifier over in-row history plus
// bank-level context decides whether the row will develop a UER, and the row
// is isolated if so. Like every in-row method its coverage is bounded by the
// non-sudden row ratio — the paper's central critique — but it is a stronger
// comparator than unconditionally isolating every precursor row.
type Calchas struct {
	// Params tunes the Random Forest behind the predictor.
	Params ModelParams
	// Threshold is the positive-probability cutoff (default 0.5).
	Threshold float64
	// Seed drives model randomness.
	Seed uint64

	model mltree.Classifier
}

var _ Strategy = (*Calchas)(nil)

// Name identifies the baseline in reports.
func (c *Calchas) Name() string { return "Calchas-lite" }

// rowInstances generates training samples from one bank: one instance per
// first precursor (CE/UEO) observation of a row, labelled by whether that
// row later logs a UER.
func rowInstances(bf *faultsim.BankFault) (vecs [][]float64, labels []int) {
	uerRows := make(map[int]time.Time, len(bf.UERRows))
	for i, row := range bf.UERRows {
		uerRows[row] = bf.UERTimes[i]
	}
	seen := make(map[int]bool)
	for i, e := range bf.Events {
		if e.Class == ecc.ClassUER || seen[e.Addr.Row] {
			continue
		}
		seen[e.Addr.Row] = true
		vecs = append(vecs, features.RowVector(bf.Events[:i+1], e.Addr.Row, e.Time))
		label := 0
		if t, ok := uerRows[e.Addr.Row]; ok && t.After(e.Time) {
			label = 1
		}
		labels = append(labels, label)
	}
	return vecs, labels
}

// Fit trains the row predictor on ground-truth labelled banks.
func (c *Calchas) Fit(banks []*faultsim.BankFault) error {
	ds := &mltree.Dataset{Names: features.RowFeatureNames()}
	for _, bf := range banks {
		vecs, labels := rowInstances(bf)
		ds.Features = append(ds.Features, vecs...)
		ds.Labels = append(ds.Labels, labels...)
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("core: no precursor rows to train Calchas-lite")
	}
	pos := 0
	for _, l := range ds.Labels {
		pos += l
	}
	if pos == 0 || pos == ds.NumSamples() {
		return fmt.Errorf("core: Calchas-lite training labels are degenerate (%d/%d positive)", pos, ds.NumSamples())
	}
	model, err := NewModel(RandomForest, c.Params, c.Seed)
	if err != nil {
		return err
	}
	if err := model.Fit(ds); err != nil {
		return fmt.Errorf("core: fitting Calchas-lite: %w", err)
	}
	c.model = model
	if c.Threshold <= 0 {
		// Same held-out calibration the Cordial pipeline uses: the
		// positive class (precursor row that develops a UER) is rare, so
		// a fixed 0.5 cutoff would rarely fire.
		calTrain, calVal, err := ds.StratifiedSplit(xrand.New(c.Seed+1), 0.75)
		if err != nil {
			return err
		}
		cm, err := NewModel(RandomForest, c.Params, c.Seed+2)
		if err != nil {
			return err
		}
		if err := cm.Fit(calTrain); err != nil {
			return err
		}
		var ranked bool
		if c.Threshold, ranked = calibrateThreshold(cm, calVal); !ranked {
			slog.Warn("core: the Calchas-lite calibration fold lacks a class, so no cutoff can be ranked: row threshold left at the default",
				"threshold", c.Threshold, "instances", ds.NumSamples())
		}
	}
	return nil
}

// NewSession returns per-bank state.
func (c *Calchas) NewSession(bank hbm.BankAddress) Session {
	return &calchasSession{strategy: c}
}

// RestoreSession fails: a Calchas-lite session has no image.
func (c *Calchas) RestoreSession(hbm.BankAddress, []byte) (Session, error) {
	return nil, noImage(c.Name())
}

type calchasSession struct {
	baselineSession
	strategy *Calchas
	events   []mcelog.Event
	decided  map[int]bool
}

// EncodeState fails: the serving engine checkpoints no Calchas-lite session.
func (s *calchasSession) EncodeState() ([]byte, error) { return nil, noImage(s.strategy.Name()) }

func (s *calchasSession) OnEvent(e mcelog.Event) Decision { return s.Decide(e, nil) }

// Decide predicts a row at its first CE or UEO; buf is not used.
func (s *calchasSession) Decide(e mcelog.Event, _ *DecisionBuffer) Decision {
	s.events = append(s.events, e)
	if e.Class == ecc.ClassUER || s.strategy.model == nil {
		return Decision{}
	}
	if s.decided == nil {
		s.decided = make(map[int]bool)
	}
	if s.decided[e.Addr.Row] {
		return Decision{}
	}
	s.decided[e.Addr.Row] = true
	vec := features.RowVector(s.events, e.Addr.Row, e.Time)
	probs := s.strategy.model.PredictProba(vec)
	classes := s.strategy.model.Classes()
	for i, class := range classes {
		if class == 1 && probs[i] >= s.strategy.Threshold {
			return Decision{IsolateRows: []int{e.Addr.Row}}
		}
	}
	return Decision{}
}
