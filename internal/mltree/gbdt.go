package mltree

import (
	"fmt"
	"math"
	"runtime"

	"cordial/internal/xrand"
)

// GBDTConfig configures the XGBoost-style gradient-boosted trees.
type GBDTConfig struct {
	// Rounds is the number of boosting rounds per class (default 100).
	Rounds int
	// LearningRate is the shrinkage applied to every tree (default 0.1).
	LearningRate float64
	// MaxDepth bounds each tree (default 4).
	MaxDepth int
	// MinSamplesLeaf is the minimum samples per leaf (default 1).
	MinSamplesLeaf int
	// Lambda is the L2 regularisation on leaf values (default 1).
	Lambda float64
	// Gamma is the minimum gain to make a split (default 0).
	Gamma float64
	// MinChildWeight is the minimum hessian sum per child (default 1e-3).
	MinChildWeight float64
	// SubsampleRatio is the per-tree row subsample fraction in (0,1]
	// (default 1).
	SubsampleRatio float64
	// ColsampleRatio is the per-split feature subsample fraction in (0,1]
	// (default 1).
	ColsampleRatio float64
	// PositiveWeight scales the gradient/hessian of positive samples to
	// counter class imbalance (default 1; like scale_pos_weight).
	PositiveWeight float64
	// EarlyStopRounds stops boosting when the held-out log-loss has not
	// improved for this many rounds (0 disables). A 20% validation split
	// is carved from the training data.
	EarlyStopRounds int
	// Parallelism caps the goroutines fitting one-vs-rest arms and
	// searching splits; <=0 means runtime.GOMAXPROCS(0). Results are
	// identical for any value: arm RNG streams are derived up front and
	// split search reduces deterministically.
	Parallelism int
	// Seed drives row/column subsampling and the early-stop split.
	Seed uint64
}

func (c GBDTConfig) withDefaults() GBDTConfig {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	if c.Lambda < 0 {
		c.Lambda = 1
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1e-3
	}
	if c.SubsampleRatio <= 0 || c.SubsampleRatio > 1 {
		c.SubsampleRatio = 1
	}
	if c.PositiveWeight <= 0 {
		c.PositiveWeight = 1
	}
	if c.EarlyStopRounds < 0 {
		c.EarlyStopRounds = 0
	}
	if c.ColsampleRatio <= 0 || c.ColsampleRatio > 1 {
		c.ColsampleRatio = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// booster is one binary logistic gradient-boosting chain (one-vs-rest arm).
type booster struct {
	Bias  float64     `json:"bias"`
	Trees []*treeNode `json:"trees"`
	LR    float64     `json:"lr"`

	// flat is the chain compiled for inference; rebuilt by compile()
	// after fitting or deserialising.
	flat *flatEnsemble
}

// compile flattens the fitted chain for cache-friendly inference.
func (b *booster) compile() { b.flat = compileChain(b.Trees) }

// boosted is the fitted state GBDT and HistGBDT share — one boosting chain
// per class (a single chain for binary problems) — and the inference over it.
type boosted struct {
	classes  []int
	boosters []*booster
}

// Classes returns the labels seen during Fit.
func (m *boosted) Classes() []int { return m.classes }

// NumTrees returns the total tree count across all arms.
func (m *boosted) NumTrees() int {
	n := 0
	for _, b := range m.boosters {
		n += len(b.Trees)
	}
	return n
}

// PredictProba returns class probabilities: the sigmoid margin for binary
// problems, or normalised one-vs-rest sigmoids for multi-class.
func (m *boosted) PredictProba(x []float64) []float64 {
	out := make([]float64, len(m.classes))
	m.predictBlock(out, [][]float64{x})
	return out
}

// predictBlock is the blockPredictor kernel; dst doubles as the margin
// scratch.
func (m *boosted) predictBlock(dst []float64, X [][]float64) {
	k := len(m.classes)
	if len(m.boosters) == 0 {
		clear(dst)
		return
	}
	if k == 2 {
		b := m.boosters[0]
		b.flat.margins(dst[1:], 2, b.Bias, b.LR, X)
		for i := range X {
			p := sigmoid(dst[2*i+1])
			dst[2*i], dst[2*i+1] = 1-p, p
		}
		return
	}
	for a, b := range m.boosters {
		b.flat.margins(dst[a:], k, b.Bias, b.LR, X)
	}
	for i := range X {
		row := dst[i*k : (i+1)*k]
		total := 0.0
		for a, margin := range row {
			row[a] = sigmoid(margin)
			total += row[a]
		}
		for a := range row {
			if total > 0 {
				row[a] /= total
			} else {
				row[a] = 1 / float64(k)
			}
		}
	}
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}

// GBDT is a gradient-boosted decision tree classifier in the XGBoost style:
// second-order (Newton) boosting of regression trees on the logistic loss,
// with L2 leaf regularisation, shrinkage, and row/column subsampling.
// Multi-class problems are handled one-vs-rest.
type GBDT struct {
	Config GBDTConfig
	boosted
}

// NewGBDT returns an unfitted GBDT.
func NewGBDT(cfg GBDTConfig) *GBDT {
	return &GBDT{Config: cfg.withDefaults()}
}

var _ Classifier = (*GBDT)(nil)

// Fit trains one boosting chain per class (a single chain for binary
// problems).
func (g *GBDT) Fit(ds *Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	g.classes = ds.Classes()
	if len(g.classes) < 2 {
		return fmt.Errorf("mltree: GBDT needs ≥2 classes, got %d", len(g.classes))
	}
	rng := xrand.New(g.Config.Seed)

	arms := len(g.classes)
	if arms == 2 {
		arms = 1 // binary: a single chain for the positive (larger) class
	}
	// Derive every arm's RNG up front, in arm order, so concurrent arm
	// fitting consumes the exact streams the serial loop did.
	rngs := make([]*xrand.RNG, arms)
	for a := range rngs {
		rngs[a] = rng.Split()
	}
	g.boosters = make([]*booster, arms)
	errs := make([]error, arms)
	runWorkers(arms, g.Config.Parallelism, func(_, a int) {
		positive := g.classes[a]
		if len(g.classes) == 2 {
			positive = g.classes[1]
		}
		y := make([]float64, ds.NumSamples())
		for i, l := range ds.Labels {
			if l == positive {
				y[i] = 1
			}
		}
		b, err := g.fitBinary(ds, y, rngs[a])
		if err != nil {
			errs[a] = fmt.Errorf("mltree: GBDT arm %d: %w", a, err)
			return
		}
		b.compile()
		g.boosters[a] = b
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *GBDT) fitBinary(ds *Dataset, y []float64, rng *xrand.RNG) (*booster, error) {
	cfg := g.Config
	n := ds.NumSamples()

	// Optional early-stopping validation split.
	trainIdx := make([]int, 0, n)
	var valIdx []int
	if cfg.EarlyStopRounds > 0 && n >= 20 {
		perm := rng.Perm(n)
		cut := n / 5
		valIdx = perm[:cut]
		trainIdx = append(trainIdx, perm[cut:]...)
	} else {
		for i := 0; i < n; i++ {
			trainIdx = append(trainIdx, i)
		}
	}

	pos := 0.0
	for _, i := range trainIdx {
		pos += y[i]
	}
	// Prior log-odds, clamped away from degeneracy.
	p0 := (pos + 1) / (float64(len(trainIdx)) + 2)
	b := &booster{Bias: math.Log(p0 / (1 - p0)), LR: cfg.LearningRate}

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = b.Bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	numFeatures := ds.NumFeatures()
	colsPerSplit := int(math.Round(cfg.ColsampleRatio * float64(numFeatures)))
	if colsPerSplit < 1 {
		colsPerSplit = 1
	}

	bestLoss := math.Inf(1)
	bestLen := 0
	sinceBest := 0

	// The columnized matrix is shared by every round's tree, and when row
	// subsampling is off (the default) the per-feature sorted order of the
	// training rows never changes either — presort once and let every tree
	// start from the same read-only root lists.
	cols := columnize(ds.Features)
	part := newPartitioner(n)
	var rootSorted [][]int32
	if cfg.SubsampleRatio >= 1 {
		rootSorted = presortByFeature(cols, trainIdx)
	}

	for round := 0; round < cfg.Rounds; round++ {
		for _, i := range trainIdx {
			p := sigmoid(margin[i])
			w := 1.0
			if y[i] == 1 {
				w = cfg.PositiveWeight
			}
			grad[i] = w * (p - y[i])
			hess[i] = w * p * (1 - p)
		}
		rt := &regTree{
			cfg: TreeConfig{
				MaxDepth:        cfg.MaxDepth,
				MinSamplesSplit: 2 * cfg.MinSamplesLeaf,
				MinSamplesLeaf:  cfg.MinSamplesLeaf,
			},
			lambda:  cfg.Lambda,
			gamma:   cfg.Gamma,
			minHess: cfg.MinChildWeight,
			rng:     rng,
			maxFeat: colsPerSplit,
			cols:    cols,
			grad:    grad,
			hess:    hess,
			part:    part,
		}
		var root *treeNode
		if rootSorted != nil {
			// Tree growth partitions its lists in place, so each round
			// works on an arena copy of the cached root presort.
			root = rt.build(copyLists(rootSorted), 0)
		} else {
			root = rt.fit(g.subsample(trainIdx, rng))
		}
		b.Trees = append(b.Trees, root)
		for i := 0; i < n; i++ {
			margin[i] += cfg.LearningRate * root.navigate(ds.Features[i]).Value
		}

		if len(valIdx) > 0 {
			loss := 0.0
			for _, i := range valIdx {
				loss += logLoss(y[i], sigmoid(margin[i]))
			}
			loss /= float64(len(valIdx))
			if loss < bestLoss-1e-9 {
				bestLoss = loss
				bestLen = len(b.Trees)
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.EarlyStopRounds {
					b.Trees = b.Trees[:bestLen]
					break
				}
			}
		}
	}
	return b, nil
}

// logLoss is the binary cross-entropy of predicting probability p for
// label y, clamped away from infinities.
func logLoss(y, p float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	if y == 1 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

// subsample draws the per-tree row sample from the training indices.
func (g *GBDT) subsample(trainIdx []int, rng *xrand.RNG) []int {
	if g.Config.SubsampleRatio >= 1 {
		return trainIdx
	}
	k := int(math.Round(g.Config.SubsampleRatio * float64(len(trainIdx))))
	if k < 1 {
		k = 1
	}
	picks := rng.SampleInts(len(trainIdx), k)
	out := make([]int, len(picks))
	for i, p := range picks {
		out[i] = trainIdx[p]
	}
	return out
}

// PredictBatchInto predicts every row of X into dst.
func (g *GBDT) PredictBatchInto(dst []float64, X [][]float64) {
	predictBatchInto(g, len(g.classes), g.NumTrees(), g.Config.Parallelism, dst, X)
}

// PredictBatch predicts every row of X.
func (g *GBDT) PredictBatch(X [][]float64) [][]float64 { return predictBatch(g, X) }
