// Package experiments regenerates every table and figure of the Cordial
// paper's empirical study and evaluation (§III and §V) from a synthesised
// fleet, plus the ablations called out in DESIGN.md §4. Each experiment has
// a Run function returning a typed result and a Render method producing the
// paper-style text table. cmd/cordial-repro and the repository-level
// benchmarks are thin wrappers around this package.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/sparing"
	"cordial/internal/trace"
)

// Params scales every experiment. Construct with Default or Quick.
type Params struct {
	// Spec configures fleet synthesis (scale, seed, calibration).
	Spec trace.Spec
	// TrainFrac is the train/test split (paper: 0.7).
	TrainFrac float64
	// SplitSeed drives the bank-level split.
	SplitSeed uint64
	// Model tunes the ensemble sizes.
	Model core.ModelParams
	// Budget bounds spare resources during prediction evaluation.
	Budget sparing.Budget
}

// Default returns the full-scale parameters used for the reported results:
// 500 faulty banks and 3000 benign banks spread over a 4096-NPU fleet (the
// paper's error-bank density of roughly one per NPU), 80-tree ensembles.
func Default() Params {
	prof := *hbm.HBM2E
	prof.Geometry.Nodes = 512
	spec := trace.DefaultSpecFor(&prof)
	spec.UERBanks = 500
	spec.BenignBanks = 3000
	return Params{
		Spec:      spec,
		TrainFrac: 0.7,
		SplitSeed: 7,
		Model:     core.ModelParams{Trees: 80, Depth: 8, Leaves: 31},
		Budget:    sparing.DefaultBudget(),
	}
}

// Quick returns reduced-scale parameters for tests and smoke runs.
func Quick() Params {
	p := Default()
	p.Spec.UERBanks = 100
	p.Spec.BenignBanks = 300
	p.Model = core.ModelParams{Trees: 25, Depth: 8, Leaves: 15}
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if p.TrainFrac <= 0 || p.TrainFrac >= 1 {
		return fmt.Errorf("experiments: train fraction %g out of (0,1)", p.TrainFrac)
	}
	return p.Budget.Validate()
}

// fleet synthesises the dataset for the parameters.
func (p Params) fleet() (*trace.Fleet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return trace.Generate(p.Spec)
}

// newTabWriter returns the common table layout.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// pct formats a ratio as a percentage with two decimals, e.g. "95.61%".
func pct(r float64) string { return fmt.Sprintf("%.2f%%", r*100) }
