package experiments

import (
	"fmt"
	"io"
	"strings"

	"cordial/internal/core"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/metrics"
	"cordial/internal/mltree"
	"cordial/internal/xrand"
)

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Label     string
	PatternF1 float64
	BlockF1   float64
	ICR       float64
}

// Ablation is a labelled sweep result.
type Ablation struct {
	Name string
	Rows []AblationRow
}

// Render writes the sweep as a table.
func (a *Ablation) Render(w io.Writer) error {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "%s\tPattern F1\tBlock F1\tICR (%%)\n", a.Name)
	for _, r := range a.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%s\n", r.Label, r.PatternF1, r.BlockF1, pct(r.ICR))
	}
	return tw.Flush()
}

// runConfig trains a Random-Forest Cordial with the given configuration and
// evaluates pattern F1, block F1 and ICR on the test banks.
func runConfig(p Params, cfg core.Config, train, test []*faultsim.BankFault) (AblationRow, error) {
	cfg.Params = p.Model
	pipe, err := core.New(cfg)
	if err != nil {
		return AblationRow{}, err
	}
	if err := pipe.Fit(train); err != nil {
		return AblationRow{}, err
	}
	pe, err := core.EvaluatePattern(pipe, test)
	if err != nil {
		return AblationRow{}, err
	}
	strat := &core.CordialStrategy{Pipeline: pipe, Geometry: p.Spec.Fault.Profile.Geometry}
	res, err := core.EvaluatePredictionFor(p.Spec.Fault.Profile, strat, test, cfg.Block, p.Budget)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		PatternF1: pe.Weighted.F1,
		BlockF1:   res.Block.F1,
		ICR:       res.ICR.Rate(),
	}, nil
}

// split prepares the shared fleet and bank split for an ablation.
func (p Params) split() (train, test []*faultsim.BankFault, err error) {
	fleet, err := p.fleet()
	if err != nil {
		return nil, nil, err
	}
	return core.SplitBanks(fleet.Faults, xrand.New(p.SplitSeed), p.TrainFrac)
}

// RunAblationUERBudget sweeps the first-K-UER budget of the pattern
// classifier (§IV-C discusses the trade-off; the paper settles on 3).
func RunAblationUERBudget(p Params, budgets []int) (*Ablation, error) {
	if len(budgets) == 0 {
		budgets = []int{1, 2, 3, 5}
	}
	train, test, err := p.split()
	if err != nil {
		return nil, err
	}
	out := &Ablation{Name: "UER budget"}
	for _, b := range budgets {
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Pattern = features.PatternConfig{UERBudget: b}
		row, err := runConfig(p, cfg, train, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: budget %d: %w", b, err)
		}
		row.Label = fmt.Sprintf("first %d UERs", b)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RunAblationBlockGeometry sweeps the block size within the paper's 128-row
// window (16×8 in the paper; 32×4 and 8×16 as alternatives).
func RunAblationBlockGeometry(p Params, sizes []int) (*Ablation, error) {
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16}
	}
	train, test, err := p.split()
	if err != nil {
		return nil, err
	}
	out := &Ablation{Name: "Block geometry (window ±64)"}
	for _, size := range sizes {
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Block = features.BlockSpec{WindowRadius: 64, BlockSize: size}
		row, err := runConfig(p, cfg, train, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: block size %d: %w", size, err)
		}
		row.Label = fmt.Sprintf("%d blocks × %d rows", cfg.Block.NumBlocks(), size)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// RunAblationWindow sweeps the prediction window radius around the last UER
// row (the paper derives ±64 from the Figure 4 locality study).
func RunAblationWindow(p Params, radii []int) (*Ablation, error) {
	if len(radii) == 0 {
		radii = []int{16, 32, 64, 128}
	}
	train, test, err := p.split()
	if err != nil {
		return nil, err
	}
	out := &Ablation{Name: "Window radius (8-row blocks)"}
	for _, radius := range radii {
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Block = features.BlockSpec{WindowRadius: radius, BlockSize: 8}
		row, err := runConfig(p, cfg, train, test)
		if err != nil {
			return nil, fmt.Errorf("experiments: radius %d: %w", radius, err)
		}
		row.Label = fmt.Sprintf("±%d rows", radius)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// FeatureFamily groups feature columns by the paper's taxonomy (§IV-B).
type FeatureFamily int

// Feature families.
const (
	FamilySpatial FeatureFamily = iota + 1
	FamilyTemporal
	FamilyCount
)

// String names the family.
func (f FeatureFamily) String() string {
	switch f {
	case FamilySpatial:
		return "spatial"
	case FamilyTemporal:
		return "temporal"
	case FamilyCount:
		return "count"
	default:
		return fmt.Sprintf("FeatureFamily(%d)", int(f))
	}
}

// familyOf classifies a feature column by its name.
func familyOf(name string) FeatureFamily {
	switch {
	case strings.Contains(name, "count") || strings.Contains(name, "rate"):
		return FamilyCount
	case strings.Contains(name, "dt_") || strings.HasSuffix(name, "_h"):
		return FamilyTemporal
	default:
		return FamilySpatial
	}
}

// filterColumns keeps only the columns whose name satisfies keep.
func filterColumns(ds *mltree.Dataset, keep func(string) bool) *mltree.Dataset {
	var cols []int
	var names []string
	for j, name := range ds.Names {
		if keep(name) {
			cols = append(cols, j)
			names = append(names, name)
		}
	}
	out := &mltree.Dataset{Names: names, Labels: ds.Labels}
	out.Features = make([][]float64, len(ds.Features))
	for i, row := range ds.Features {
		nr := make([]float64, len(cols))
		for k, j := range cols {
			nr[k] = row[j]
		}
		out.Features[i] = nr
	}
	return out
}

// RunAblationFeatures evaluates pattern classification with each feature
// family alone versus all families together (§IV-B motivates all three).
func RunAblationFeatures(p Params) (*Ablation, error) {
	train, test, err := p.split()
	if err != nil {
		return nil, err
	}
	cfg := features.DefaultPatternConfig()
	trainDS, err := core.BuildPatternDataset(train, cfg, false)
	if err != nil {
		return nil, err
	}
	testDS, err := core.BuildPatternDataset(test, cfg, false)
	if err != nil {
		return nil, err
	}

	variants := []struct {
		label string
		keep  func(string) bool
	}{
		{"spatial only", func(n string) bool { return familyOf(n) == FamilySpatial }},
		{"temporal only", func(n string) bool { return familyOf(n) == FamilyTemporal }},
		{"count only", func(n string) bool { return familyOf(n) == FamilyCount }},
		{"all families", func(string) bool { return true }},
	}
	out := &Ablation{Name: "Pattern feature families"}
	for _, v := range variants {
		tr := filterColumns(trainDS, v.keep)
		te := filterColumns(testDS, v.keep)
		model, err := core.NewModel(core.RandomForest, p.Model, p.SplitSeed)
		if err != nil {
			return nil, err
		}
		if err := model.Fit(tr); err != nil {
			return nil, fmt.Errorf("experiments: features %q: %w", v.label, err)
		}
		var conf metrics.Confusion
		for i, x := range te.Features {
			conf.Add(te.Labels[i], mltree.Predict(model, x))
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:     v.label,
			PatternF1: conf.WeightedAverage().F1,
		})
	}
	return out, nil
}
