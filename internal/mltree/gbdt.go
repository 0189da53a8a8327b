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

// booster is one binary logistic gradient-boosting chain (one-vs-rest arm) as
// it trains and as the model file holds it.
type booster struct {
	Bias  float64     `json:"bias"`
	Trees []*treeNode `json:"trees"`
	LR    float64     `json:"lr"`
}

// boosted is the fitted state GBDT and HistGBDT share — one boosting chain
// per class (a single chain for binary problems), every chain's trees in one
// arena — and the inference over it.
type boosted struct {
	classes []int
	arena   *arena
}

// Classes returns the labels seen during Fit.
func (m *boosted) Classes() []int { return m.classes }

// NumTrees returns the total tree count across all arms.
func (m *boosted) NumTrees() int { return m.arena.numTrees() }

// begin validates the training set and records its classes.
func (m *boosted) begin(ds *Dataset, kind string) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	m.classes = ds.Classes()
	if len(m.classes) < 2 {
		return fmt.Errorf("mltree: %s needs ≥2 classes, got %d", kind, len(m.classes))
	}
	return nil
}

// armsFor returns how many chains a model of k classes has: one per class,
// or a single one, for the larger class, when there are two.
func armsFor(k int) int {
	if k == 2 {
		return 1
	}
	return k
}

// trainArms trains a model's chains, each fitted by fit against its class's
// 0/1 targets.
func trainArms(ds *Dataset, classes []int, parallelism int, seed uint64, fit func(y []float64, rng *xrand.RNG) *booster) []*booster {
	rng, arms := xrand.New(seed), armsFor(len(classes))
	// Derive every arm's RNG up front, in arm order, so concurrent arm
	// fitting consumes the exact streams the serial loop did.
	rngs := make([]*xrand.RNG, arms)
	for a := range rngs {
		rngs[a] = rng.Split()
	}
	boosters := make([]*booster, arms)
	runWorkers(arms, parallelism, func(_, a int) {
		positive := classes[a]
		if len(classes) == 2 {
			positive = classes[1]
		}
		y := make([]float64, ds.NumSamples())
		for i, l := range ds.Labels {
			if l == positive {
				y[i] = 1
			}
		}
		boosters[a] = fit(y, rngs[a])
	})
	return boosters
}

// compile validates trained or decoded chains and lays them out in the
// model's arena; the pointer trees are garbage afterwards.
func (m *boosted) compile(boosters []*booster) (err error) {
	var grown []grownTree
	chains := make([]chain, len(boosters))
	for c, b := range boosters {
		if b == nil {
			return fmt.Errorf("chain %d is missing", c)
		}
		chains[c] = chain{bias: b.Bias, lr: b.LR, lo: len(grown), hi: len(grown) + len(b.Trees)}
		for t, root := range b.Trees {
			var gt grownTree
			if err := gt.flatten(root, nil, 1); err != nil {
				return fmt.Errorf("chain %d tree %d: %w", c, t, err)
			}
			grown = append(grown, gt)
		}
	}
	m.arena, err = compileArena(grown, 1, chains)
	return err
}

// boosters rebuilds the chains as Save writes them: compile's inverse.
func (m *boosted) boosters() []*booster {
	out := make([]*booster, len(m.arena.chains))
	for c, ch := range m.arena.chains {
		out[c] = &booster{Bias: ch.bias, LR: ch.lr}
		for _, r := range m.arena.roots[ch.lo:ch.hi] {
			out[c].Trees = append(out[c].Trees, m.arena.pointerTree(r, nil))
		}
	}
	return out
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
	if m.arena == nil {
		clear(dst)
		return
	}
	if k == 2 {
		m.arena.sums(dst[1:], 2, X)
		for i := range X {
			p := sigmoid(dst[2*i+1])
			dst[2*i], dst[2*i+1] = 1-p, p
		}
		return
	}
	m.arena.sums(dst, k, X)
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
	if err := g.begin(ds, "GBDT"); err != nil {
		return err
	}
	return g.compile(trainArms(ds, g.classes, g.Config.Parallelism, g.Config.Seed, func(y []float64, rng *xrand.RNG) *booster {
		return g.fitBinary(ds, y, rng)
	}))
}

func (g *GBDT) fitBinary(ds *Dataset, y []float64, rng *xrand.RNG) *booster {
	cfg := g.Config
	n, numFeatures := ds.NumSamples(), ds.NumFeatures()
	colsPerSplit := int(math.Round(cfg.ColsampleRatio * float64(numFeatures)))
	if colsPerSplit < 1 {
		colsPerSplit = 1
	}

	// The columnized matrix is shared by every round's tree, and when row
	// subsampling is off (the default) the per-feature sorted order of the
	// training rows never changes either — presort once and let every tree
	// start from the same read-only root lists.
	cols := columnize(ds.Features)
	part := newPartitioner(n)
	var rootSorted [][]int32

	return boost(n, y, rng, cfg.Rounds, cfg.EarlyStopRounds, cfg.LearningRate, cfg.PositiveWeight,
		func(trainIdx []int, grad, hess []float64) *treeNode {
			if rootSorted == nil && cfg.SubsampleRatio >= 1 {
				rootSorted = presortByFeature(cols, trainIdx)
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
			if rootSorted != nil {
				// Tree growth partitions its lists in place, so each round
				// works on an arena copy of the cached root presort.
				return rt.build(copyLists(rootSorted), 0)
			}
			return rt.fit(g.subsample(trainIdx, rng))
		},
		func(root *treeNode, i int) float64 { return root.navigate(ds.Features[i]).Value })
}

// boost is the Newton boosting loop of one chain over n samples with 0/1
// targets y, shared by both boosters: an optional early-stopping hold-out,
// the prior margin, and each round the logistic gradients and hessians, a
// tree from grow, the margin update by value (the tree's leaf value for
// sample i) and the hold-out check.
func boost(n int, y []float64, rng *xrand.RNG, rounds, earlyStopRounds int, lr, positiveWeight float64,
	grow func(trainIdx []int, grad, hess []float64) *treeNode, value func(root *treeNode, i int) float64) *booster {
	// Optional early-stopping validation split.
	trainIdx := make([]int, 0, n)
	var valIdx []int
	if earlyStopRounds > 0 && n >= 20 {
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
	b := &booster{Bias: math.Log(p0 / (1 - p0)), LR: lr}

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = b.Bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	bestLoss := math.Inf(1)
	bestLen := 0
	sinceBest := 0

	for round := 0; round < rounds; round++ {
		for _, i := range trainIdx {
			p := sigmoid(margin[i])
			w := 1.0
			if y[i] == 1 {
				w = positiveWeight
			}
			grad[i] = w * (p - y[i])
			hess[i] = w * p * (1 - p)
		}
		root := grow(trainIdx, grad, hess)
		b.Trees = append(b.Trees, root)
		for i := 0; i < n; i++ {
			margin[i] += lr * value(root, i)
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
				if sinceBest >= earlyStopRounds {
					b.Trees = b.Trees[:bestLen]
					break
				}
			}
		}
	}
	return b
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

// columnize transposes the row-major feature matrix into per-feature
// columns backed by one contiguous allocation, for the boosting trainer: its
// split search reads a feature's values at every node, and a column of a few
// thousand float64s stays resident in L1/L2, where row-pointer chasing would
// miss on every sample.
func columnize(features [][]float64) [][]float64 {
	n := len(features)
	numFeatures := len(features[0])
	backing := make([]float64, n*numFeatures)
	cols := make([][]float64, numFeatures)
	for f := range cols {
		cols[f] = backing[f*n : (f+1)*n]
	}
	for i, row := range features {
		for f, v := range row {
			cols[f][i] = v
		}
	}
	return cols
}
