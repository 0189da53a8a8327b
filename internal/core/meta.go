package core

import (
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/hbm"
)

// ModelMeta describes the provenance of a fitted pipeline: what it was
// trained on and with which knobs. It rides inside the saved-model header
// (and inside registry artefacts), so a model file is self-describing
// instead of an anonymous blob — the serving daemon logs it at load, and
// the online drift detector uses ClassMix as the reference distribution
// the live class mix is tested against.
type ModelMeta struct {
	// TrainedAt is the wall-clock fit time. Left zero by Fit (so training
	// stays deterministic byte-for-byte); tools that persist artefacts
	// stamp it.
	TrainedAt time.Time `json:"trainedAt,omitempty"`
	// TrainedFrom/TrainedTo bound the training window: the earliest and
	// latest event timestamps across the training banks.
	TrainedFrom time.Time `json:"trainedFrom,omitempty"`
	TrainedTo   time.Time `json:"trainedTo,omitempty"`
	// EventCount and BankCount size the training set.
	EventCount int `json:"eventCount"`
	BankCount  int `json:"bankCount"`
	// ClassMix is the labelled class distribution of the training banks,
	// keyed by faultsim.Class names.
	ClassMix map[string]int `json:"classMix,omitempty"`
	// Params are the ensemble knobs the models were fitted with.
	Params ModelParams `json:"params"`
	// Geometry is the bank geometry the training data was generated or
	// collected under.
	Geometry hbm.Geometry `json:"geometry"`
}

// ClassCounts converts ClassMix back to classifier classes, for the drift
// test's contingency table. Unknown keys are ignored.
func (m *ModelMeta) ClassCounts() map[faultsim.Class]int {
	out := make(map[faultsim.Class]int, len(m.ClassMix))
	for _, c := range faultsim.AllClasses {
		if n, ok := m.ClassMix[c.String()]; ok {
			out[c] = n
		}
	}
	return out
}

// buildMeta summarises a training set. Called by Fit; TrainedAt stays zero.
func buildMeta(banks []*faultsim.BankFault, params ModelParams) *ModelMeta {
	m := &ModelMeta{
		BankCount: len(banks),
		ClassMix:  make(map[string]int, len(faultsim.AllClasses)),
		Params:    params,
	}
	for _, bf := range banks {
		m.ClassMix[bf.Class().String()]++
		m.EventCount += len(bf.Events)
		for _, ev := range bf.Events {
			if m.TrainedFrom.IsZero() || ev.Time.Before(m.TrainedFrom) {
				m.TrainedFrom = ev.Time
			}
			if ev.Time.After(m.TrainedTo) {
				m.TrainedTo = ev.Time
			}
		}
	}
	return m
}

// Meta returns the pipeline's training metadata, or nil when unknown (a
// pipeline loaded from a pre-metadata artefact, or not yet fitted).
func (p *Pipeline) Meta() *ModelMeta { return p.meta }
