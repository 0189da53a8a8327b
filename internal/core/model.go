// Package core implements Cordial itself (§IV): failure-pattern feature
// extraction feeding a three-way pattern classifier trained on the first
// three UERs of a bank, cross-row failure prediction over 16 blocks of 8
// rows in the ±64-row window around the last UER, and the isolation policy
// that row-spares predicted rows for aggregation patterns and bank-spares
// scattered ones. The package also provides the industrial baselines the
// paper compares against and the evaluation harness that produces the
// Table III / Table IV numbers.
package core

import (
	"fmt"
	"runtime"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/mltree"
)

// ModelKind selects the tree-ensemble backend (§IV-C evaluates all three).
type ModelKind int

// Model backends.
const (
	// RandomForest is bagged CART trees — the paper's best performer.
	RandomForest ModelKind = iota + 1
	// XGBoost is second-order gradient boosting with exact splits.
	XGBoost
	// LightGBM is histogram gradient boosting with leaf-wise growth and
	// GOSS.
	LightGBM
)

// AllModelKinds lists the backends in Table III/IV order.
var AllModelKinds = []ModelKind{LightGBM, XGBoost, RandomForest}

// String returns the paper's name for the backend.
func (k ModelKind) String() string {
	switch k {
	case RandomForest:
		return "Random Forest"
	case XGBoost:
		return "XGBoost"
	case LightGBM:
		return "LightGBM"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// ShortName returns the Table IV style suffix (RF, XGB, LGBM).
func (k ModelKind) ShortName() string {
	switch k {
	case RandomForest:
		return "RF"
	case XGBoost:
		return "XGB"
	case LightGBM:
		return "LGBM"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// ModelParams tunes ensemble sizes; zero values take calibrated defaults.
type ModelParams struct {
	// Trees is the forest size or boosting round count.
	Trees int
	// Depth bounds individual trees (forest and XGBoost).
	Depth int
	// Leaves bounds LightGBM's leaf-wise growth.
	Leaves int
	// Parallelism caps the goroutines used for training (forest members,
	// boosting arms, split search) and batch inference; <=0 means
	// runtime.GOMAXPROCS(0). Predictions are identical for any value, and
	// a model file does not record it.
	Parallelism int `json:"-"`
}

func (p ModelParams) withDefaults() ModelParams {
	if p.Trees <= 0 {
		p.Trees = 80
	}
	if p.Depth <= 0 {
		p.Depth = 8
	}
	if p.Leaves <= 0 {
		p.Leaves = 31
	}
	if p.Parallelism <= 0 {
		p.Parallelism = runtime.GOMAXPROCS(0)
	}
	return p
}

// NewModel constructs an unfitted classifier of the given kind.
func NewModel(kind ModelKind, params ModelParams, seed uint64) (mltree.Classifier, error) {
	p := params.withDefaults()
	switch kind {
	case RandomForest:
		// Forest members grow deeper than boosted trees (closer to
		// scikit-learn's unpruned default), relying on bagging rather
		// than pruning for variance control.
		return mltree.NewForest(mltree.ForestConfig{
			NumTrees:    p.Trees,
			Tree:        mltree.TreeConfig{MaxDepth: p.Depth + 4, MaxFeatures: -1},
			Parallelism: p.Parallelism,
			Seed:        seed,
		}), nil
	case XGBoost:
		return mltree.NewGBDT(mltree.GBDTConfig{
			Rounds:         p.Trees,
			MaxDepth:       minInt(p.Depth, 5),
			SubsampleRatio: 0.9,
			ColsampleRatio: 0.9,
			Parallelism:    p.Parallelism,
			Seed:           seed,
		}), nil
	case LightGBM:
		return mltree.NewHistGBDT(mltree.HistGBDTConfig{
			Rounds:      p.Trees,
			MaxLeaves:   p.Leaves,
			Parallelism: p.Parallelism,
			Seed:        seed,
		}), nil
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", int(kind))
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BuildPatternDataset assembles the §IV-B pattern-classification dataset:
// one sample per bank with at least one UER, labelled with the bank's
// ground-truth class. Banks whose feature extraction fails are skipped.
// With errBits set, each vector gains the intra-word error-bit columns.
func BuildPatternDataset(banks []*faultsim.BankFault, cfg features.PatternConfig, errBits bool) (*mltree.Dataset, error) {
	st, err := features.NewBankState(cfg, features.DefaultBlockSpec())
	if err != nil {
		return nil, err
	}
	vecs, labels := patternSamples(banks, st, errBits)
	if len(vecs) == 0 {
		return nil, fmt.Errorf("core: no banks with UERs to build a pattern dataset")
	}
	return &mltree.Dataset{Names: patternFeatureNames(errBits), Features: vecs, Labels: labels}, nil
}

// patternSamples folds every bank through st, reset between banks, and returns
// the pattern vector and ground-truth class of each bank with a UER; a bank
// without one has nothing to classify and is skipped. The vectors are rows of
// one backing array.
func patternSamples(banks []*faultsim.BankFault, st *features.BankState, errBits bool) (vecs [][]float64, labels []int) {
	width := patternColumns(errBits)
	backing := make([]float64, len(banks)*width)
	vecs, labels = make([][]float64, 0, len(banks)), make([]int, 0, len(banks))
	for _, bf := range banks {
		st.Reset()
		for _, e := range bf.Events {
			st.Observe(e)
		}
		vec := backing[:width:width]
		if patternVectorInto(vec, st, errBits) != nil {
			continue
		}
		backing = backing[width:]
		vecs = append(vecs, vec)
		labels = append(labels, int(bf.Class()))
	}
	return vecs, labels
}

// blockInstances generates the §IV-D training instances of one bank: after
// every observed first-UER from the warmup-th onward, one sample per block,
// labelled by whether any UER event — a new row failing or a known row
// recurring — lands in that block strictly after the decision time.
//
// The bank's events are replayed exactly once through st, reset first:
// BankFault.Events are time-sorted and UERTimes is nondecreasing, so each
// decision point only needs to fold in the events between the previous cutoff
// and its own. Each window is filled into the one scratch window, which holds
// NumBlocks × BlockFeatureCount values, and its rows are added to c.
func blockInstances(c *mltree.Coder, window []float64, st *features.BankState, bf *faultsim.BankFault, warmup int) error {
	n := len(bf.UERRows)
	warmup = max(warmup, 1)
	if n < warmup {
		return nil
	}
	st.Reset()
	spec := st.Spec()
	next := 0
	for k := warmup; k <= n; k++ {
		anchor := bf.UERRows[k-1]
		now := bf.UERTimes[k-1]
		for next < len(bf.Events) && !bf.Events[next].Time.After(now) {
			st.Observe(bf.Events[next])
			next++
		}
		st.BlockVectorsInto(window, anchor, now)
		for b := 0; b < spec.NumBlocks(); b++ {
			label := 0
			if blockHasFutureUER(bf, spec, anchor, b, now) {
				label = 1
			}
			if err := c.Add(window[b*features.BlockFeatureCount:(b+1)*features.BlockFeatureCount], label); err != nil {
				return err
			}
		}
	}
	return nil
}

// blockInstanceCount is the number of instances blockInstances generates for
// the bank: a window of blocks per UER row from the warmup-th onward.
func blockInstanceCount(bf *faultsim.BankFault, spec features.BlockSpec, warmup int) int {
	return max(len(bf.UERRows)-max(warmup, 1)+1, 0) * spec.NumBlocks()
}

// blockHasFutureUER reports whether any UER event of the bank falls in the
// block's row range strictly after now. Repeat UERs of already-failed rows
// count: §IV-D's objective is "whether there will be a UER in each block",
// and a recurring row is precisely the failure the isolation would absorb.
func blockHasFutureUER(bf *faultsim.BankFault, spec features.BlockSpec, anchor, block int, now time.Time) bool {
	lo, hi := spec.BlockRange(anchor, block)
	for _, e := range bf.Events {
		if e.Class != ecc.ClassUER || !e.Time.After(now) {
			continue
		}
		if e.Addr.Row >= lo && e.Addr.Row <= hi {
			return true
		}
	}
	return false
}

// BuildBlockDataset assembles the cross-row prediction dataset from the
// aggregation-pattern banks (the only banks Cordial cross-row predicts on).
// warmup is the number of UERs observed before the first prediction — the
// pattern classifier's UER budget in the full pipeline.
func BuildBlockDataset(banks []*faultsim.BankFault, spec features.BlockSpec, warmup int) (*mltree.Dataset, error) {
	ds, err := blockDataset(banks, spec, warmup)
	if err == nil {
		ds.Materialize()
	}
	return ds, err
}

// blockDataset is BuildBlockDataset without Features: the instances coded as
// they are made, for the fits that read nothing else.
func blockDataset(banks []*faultsim.BankFault, spec features.BlockSpec, warmup int) (*mltree.Dataset, error) {
	st, err := features.NewBankState(features.DefaultPatternConfig(), spec) // validates spec
	if err != nil {
		return nil, err
	}
	instances := 0
	for _, bf := range banks {
		if bf.Class().IsAggregation() {
			instances += blockInstanceCount(bf, spec, warmup)
		}
	}
	c := mltree.NewCoder(features.BlockFeatureCount, instances)
	window := make([]float64, spec.NumBlocks()*features.BlockFeatureCount)
	for _, bf := range banks {
		if !bf.Class().IsAggregation() {
			continue
		}
		if err := blockInstances(c, window, st, bf, warmup); err != nil {
			return nil, err
		}
	}
	ds := c.Dataset(features.BlockFeatureNames())
	if ds.NumSamples() == 0 {
		return nil, fmt.Errorf("core: no aggregation banks to build a block dataset")
	}
	return ds, nil
}
