package experiments

import (
	"fmt"
	"io"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/sparing"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// TransferParams scales the cross-architecture transfer study: a fleet is
// synthesised per topology profile, one pipeline is trained per profile,
// and every pipeline is evaluated against every profile's held-out banks.
// The diagonal (train == eval) is the in-domain baseline the off-diagonal
// transfer numbers are read against.
type TransferParams struct {
	// Profiles names the registered topology profiles to cross.
	Profiles []string
	// UERBanks and BenignBanks scale each profile's fleet.
	UERBanks    int
	BenignBanks int
	// Seed drives fleet synthesis; profile i uses Seed+i.
	Seed uint64
	// TrainFrac is the per-profile train/test split.
	TrainFrac float64
	// SplitSeed drives the bank-level split.
	SplitSeed uint64
	// Model tunes the ensemble sizes.
	Model core.ModelParams
	// Budget bounds spare resources during prediction evaluation.
	Budget sparing.Budget
}

// DefaultTransfer returns the parameters of the reported transfer table:
// the two HBM generations plus a DDR5 DIMM fleet.
func DefaultTransfer() TransferParams {
	return TransferParams{
		Profiles:    []string{"hbm2e", "hbm3", "ddr5-dimm"},
		UERBanks:    120,
		BenignBanks: 240,
		Seed:        17,
		TrainFrac:   0.7,
		SplitSeed:   7,
		Model:       core.ModelParams{Trees: 25, Depth: 8, Leaves: 15},
		Budget:      sparing.DefaultBudget(),
	}
}

// Validate checks the parameters.
func (p TransferParams) Validate() error {
	if len(p.Profiles) < 2 {
		return fmt.Errorf("experiments: transfer needs at least 2 profiles, got %d", len(p.Profiles))
	}
	for _, name := range p.Profiles {
		if _, err := hbm.ProfileByName(name); err != nil {
			return err
		}
	}
	if p.UERBanks < 1 {
		return fmt.Errorf("experiments: transfer UER banks %d < 1", p.UERBanks)
	}
	if p.TrainFrac <= 0 || p.TrainFrac >= 1 {
		return fmt.Errorf("experiments: train fraction %g out of (0,1)", p.TrainFrac)
	}
	return p.Budget.Validate()
}

// TransferRow is one train→eval pair's result.
type TransferRow struct {
	Train string `json:"train"`
	Eval  string `json:"eval"`
	// PatternF1 is the weighted pattern-classification F1 on the eval
	// profile's held-out banks.
	PatternF1 float64 `json:"pattern_f1"`
	// BlockF1 scores the cross-row block predictions.
	BlockF1 float64 `json:"block_f1"`
	// ICR credits any isolation mechanism; CrossRowICR only row-granular
	// isolation (the paper's ICR).
	ICR         float64 `json:"icr"`
	CrossRowICR float64 `json:"cross_row_icr"`
}

// Transfer is the cross-architecture study result.
type Transfer struct {
	Rows []TransferRow
}

// transferFleet caches one profile's synthesised split.
type transferFleet struct {
	profile *hbm.Profile
	train   []*faultsim.BankFault
	test    []*faultsim.BankFault
}

// RunTransfer synthesises a fleet per profile, trains one pipeline per
// profile on that profile's fleet, and evaluates every pipeline on every
// profile's test banks, keyed and spared under the eval profile. The feature
// vectors are topology-free — rows, times, error classes within a bank —
// which is what makes cross-architecture reuse plausible at all; this
// study measures how much headroom that leaves.
func RunTransfer(p TransferParams) (*Transfer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fleets := make([]transferFleet, 0, len(p.Profiles))
	for i, name := range p.Profiles {
		prof, err := hbm.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		spec := trace.DefaultSpecFor(prof)
		spec.UERBanks = p.UERBanks
		spec.BenignBanks = p.BenignBanks
		spec.Seed = p.Seed + uint64(i)
		fleet, err := trace.Generate(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: transfer fleet for %s: %w", name, err)
		}
		train, test, err := core.SplitBanks(fleet.Faults, xrand.New(p.SplitSeed), p.TrainFrac)
		if err != nil {
			return nil, fmt.Errorf("experiments: transfer split for %s: %w", name, err)
		}
		fleets = append(fleets, transferFleet{profile: prof, train: train, test: test})
	}

	result := &Transfer{}
	for _, src := range fleets {
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Params = p.Model
		pipe, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := pipe.Fit(src.train); err != nil {
			return nil, fmt.Errorf("experiments: transfer fit on %s: %w", src.profile.Name, err)
		}
		for _, dst := range fleets {
			pe, err := core.EvaluatePattern(pipe, dst.test)
			if err != nil {
				return nil, fmt.Errorf("experiments: transfer %s→%s pattern: %w", src.profile.Name, dst.profile.Name, err)
			}
			strat := &core.CordialStrategy{Pipeline: pipe, Geometry: dst.profile.Geometry}
			res, err := core.EvaluatePredictionFor(dst.profile, strat, dst.test, cfg.Block, p.Budget)
			if err != nil {
				return nil, fmt.Errorf("experiments: transfer %s→%s prediction: %w", src.profile.Name, dst.profile.Name, err)
			}
			result.Rows = append(result.Rows, TransferRow{
				Train:       src.profile.Name,
				Eval:        dst.profile.Name,
				PatternF1:   pe.Weighted.F1,
				BlockF1:     res.Block.F1,
				ICR:         res.ICR.Rate(),
				CrossRowICR: res.CrossRowICR.Rate(),
			})
		}
	}
	return result, nil
}

// Render writes the transfer table; diagonal rows are marked as the
// in-domain baseline.
func (t *Transfer) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "train\teval\tpattern-F1\tblock-F1\tICR\tcross-row-ICR\t")
	for _, r := range t.Rows {
		note := ""
		if r.Train == r.Eval {
			note = "(baseline)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Train, r.Eval, pct(r.PatternF1), pct(r.BlockF1), pct(r.ICR), pct(r.CrossRowICR), note)
	}
	return tw.Flush()
}
