package mltree

import (
	"fmt"
	"math"

	"cordial/internal/xrand"
)

// The boosters' fixed settings, XGBoost's and LightGBM's defaults: the
// shrinkage applied to every tree, the L2 penalty on leaf values, and the
// least hessian sum a child may hold.
const (
	learningRate   = 0.1
	lambda         = 1.0
	minChildWeight = 1e-3
)

// GBDTConfig configures the XGBoost-style gradient-boosted trees.
type GBDTConfig struct {
	// Rounds is the number of boosting rounds per class (default 100).
	Rounds int
	// MaxDepth bounds each tree (default 4).
	MaxDepth int
	// SubsampleRatio is the per-tree row subsample fraction in (0,1]
	// (default 1).
	SubsampleRatio float64
	// ColsampleRatio is the per-split feature subsample fraction in (0,1]
	// (default 1).
	ColsampleRatio float64
	// Parallelism caps the goroutines fitting one-vs-rest arms and
	// searching splits; <=0 means runtime.GOMAXPROCS(0). Results are
	// identical for any value: arm RNG streams are derived up front and
	// split search reduces deterministically. A model file does not record
	// it: a loaded model predicts on the loading process's cores.
	Parallelism int `json:"-"`
	// Seed drives row and column subsampling.
	Seed uint64
}

func (c GBDTConfig) withDefaults() GBDTConfig {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
	if c.SubsampleRatio <= 0 || c.SubsampleRatio > 1 {
		c.SubsampleRatio = 1
	}
	if c.ColsampleRatio <= 0 || c.ColsampleRatio > 1 {
		c.ColsampleRatio = 1
	}
	c.Parallelism = defaultParallelism(c.Parallelism)
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

// fit validates ds, records its classes, and trains and compiles the model's
// chains (trainArms).
func (m *boosted) fit(ds *Dataset, kind string, parallelism int, seed uint64, fit func(fr fitRows, y []float64, rng *xrand.RNG) *booster) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	m.classes = ds.Classes()
	if len(m.classes) < 2 {
		return fmt.Errorf("mltree: %s needs ≥2 classes, got %d", kind, len(m.classes))
	}
	return m.compile(trainArms(ds, m.classes, parallelism, seed, fit))
}

// armsFor returns how many chains a model of k classes has: one per class,
// or a single one, for the larger class, when there are two.
func armsFor(k int) int {
	if k == 2 {
		return 1
	}
	return k
}

// trainArms trains a model's chains, each fitted by fit over ds's rows against
// its class's 0/1 targets.
func trainArms(ds *Dataset, classes []int, parallelism int, seed uint64, fit func(fr fitRows, y []float64, rng *xrand.RNG) *booster) []*booster {
	rng, arms, fr := xrand.New(seed), armsFor(len(classes)), fitRowsOf(ds)
	// Derive every arm's RNG up front, in arm order, so concurrent arm
	// fitting consumes the exact streams the serial loop did.
	rngs := make([]xrand.RNG, arms)
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
		boosters[a] = fit(fr, y, &rngs[a])
	})
	return boosters
}

// compile validates trained or decoded chains and lays them out in the
// model's arena; the pointer trees are garbage afterwards.
func (m *boosted) compile(boosters []*booster) (err error) {
	var grown []grownTree
	build := newBuilder(1)
	chains := make([]chain, len(boosters))
	for c, b := range boosters {
		if b == nil {
			return fmt.Errorf("chain %d is missing", c)
		}
		chains[c] = chain{bias: b.Bias, lr: b.LR, lo: len(grown), hi: len(grown) + len(b.Trees)}
		for t, root := range b.Trees {
			gt, err := build.flatten(root, nil)
			if err != nil {
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

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

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
	return g.fit(ds, "GBDT", g.Config.Parallelism, g.Config.Seed, g.fitBinary)
}

func (g *GBDT) fitBinary(fr fitRows, y []float64, rng *xrand.RNG) *booster {
	cfg := g.Config
	b := newBoostGrower(fr, false)
	b.maxDepth, b.rng = cfg.MaxDepth, rng
	b.maxFeat = max(1, int(math.Round(cfg.ColsampleRatio*float64(len(fr.codes)))))
	samples := make([]int, fr.n)
	for i := range samples {
		samples[i] = i
	}
	return boost(fr, y, cfg.Rounds, func(grad, hess []float64) *treeNode {
		if cfg.SubsampleRatio < 1 { // the per-tree row sample
			samples = rng.SampleInts(fr.n, max(1, int(math.Round(cfg.SubsampleRatio*float64(fr.n)))))
		}
		return b.growDepthFirst(b.start(samples, grad, hess))
	})
}

// boost is the Newton boosting loop of one chain over fr's samples with 0/1
// targets y, shared by both boosters: the prior margin, then each round the
// logistic gradients and hessians, a tree from grow, and the margin update,
// each sample walking the tree by its codes' values.
func boost(fr fitRows, y []float64, rounds int, grow func(grad, hess []float64) *treeNode) *booster {
	pos := 0.0
	for _, v := range y {
		pos += v
	}
	// Prior log-odds, clamped away from degeneracy.
	p0 := (pos + 1) / (float64(fr.n) + 2)
	b := &booster{Bias: math.Log(p0 / (1 - p0)), LR: learningRate}

	margin := make([]float64, fr.n)
	for i := range margin {
		margin[i] = b.Bias
	}
	grad := make([]float64, fr.n)
	hess := make([]float64, fr.n)

	for round := 0; round < rounds; round++ {
		for i, m := range margin {
			p := sigmoid(m)
			grad[i] = p - y[i]
			hess[i] = p * (1 - p)
		}
		root := grow(grad, hess)
		b.Trees = append(b.Trees, root)
		for i := range margin {
			margin[i] += learningRate * fr.leaf(root, i).Value
		}
	}
	return b
}

// PredictBatchInto predicts every row of X into dst.
func (g *GBDT) PredictBatchInto(dst []float64, X [][]float64) {
	predictBatchInto(g, len(g.classes), g.NumTrees(), g.Config.Parallelism, dst, X)
}

// PredictBatch predicts every row of X.
func (g *GBDT) PredictBatch(X [][]float64) [][]float64 { return predictBatch(g, X) }
