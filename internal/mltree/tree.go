package mltree

import (
	"math"

	"cordial/internal/xrand"
)

// TreeConfig configures a single CART decision tree. Splits minimise Gini
// impurity; a node of fewer than two samples is a leaf, and a child may hold
// a single sample.
type TreeConfig struct {
	// MaxDepth bounds tree depth; <=0 means unlimited.
	MaxDepth int
	// MaxFeatures is the number of features considered per split;
	// 0 means all, -1 means round(sqrt(numFeatures)).
	MaxFeatures int
}

// resolveMaxFeatures turns the MaxFeatures convention into a concrete count.
func (c TreeConfig) resolveMaxFeatures(numFeatures int) int {
	switch {
	case c.MaxFeatures == 0 || c.MaxFeatures >= numFeatures:
		return numFeatures
	case c.MaxFeatures == -1:
		return max(1, int(math.Round(math.Sqrt(float64(numFeatures)))))
	case c.MaxFeatures > 0:
		return c.MaxFeatures
	default:
		return numFeatures
	}
}

// treeNode is one node of a tree as the model file holds it, and as the
// boosters grow and navigate it while training; a fitted model keeps none (see
// arena.go). Leaves carry a class-probability vector (classification) or a
// scalar (regression boosting).
type treeNode struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t"`
	Left      *treeNode `json:"l,omitempty"`
	Right     *treeNode `json:"r,omitempty"`
	Probs     []float64 `json:"p,omitempty"`
	Value     float64   `json:"v,omitempty"`
}

func (n *treeNode) isLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a CART decision-tree classifier.
type Tree struct {
	Config  TreeConfig
	arena   *arena
	classes []int
	rng     *xrand.RNG
}

var _ Classifier = (*Tree)(nil)

// Classes returns the labels seen during Fit.
func (t *Tree) Classes() []int { return t.classes }

// Fit grows the tree on the dataset and compiles it for inference.
func (t *Tree) Fit(ds *Dataset) (err error) {
	if err := ds.Validate(); err != nil {
		return err
	}
	t.classes = ds.Classes()
	cd := newClassData(ds, t.classes)
	g := newGrower(cd, t.Config)
	for i := 0; i < cd.n; i++ {
		g.mult[cd.row(i)]++
	}
	t.arena, err = compileArena([]grownTree{g.fit(t.rng)}, len(t.classes), nil)
	return err
}

// PredictProba returns the class distribution of the leaf x lands in.
func (t *Tree) PredictProba(x []float64) []float64 {
	out := make([]float64, len(t.classes))
	t.arena.predictBlock(out, [][]float64{x})
	return out
}

// PredictBatchInto predicts every row of X into dst. A tree has no
// Parallelism setting and one descent per row is cheaper than a goroutine
// hand-off, so it drives the shared kernel on the calling goroutine.
func (t *Tree) PredictBatchInto(dst []float64, X [][]float64) {
	predictBatchInto(t.arena, len(t.classes), 1, 1, dst, X)
}

// PredictBatch predicts every row of X.
func (t *Tree) PredictBatch(X [][]float64) [][]float64 { return predictBatch(t, X) }

// splitCand is a split a grower scored: one feature's best, produced
// independently per feature so that split search can fan out across features
// and still reduce in deterministic candidate order.
type splitCand struct {
	gain float64
	feat int
	thr  float64
	nl   int // left-child size (the classification grower)
	bin  int // a value code: samples coded at most bin go left
	ok   bool
}
