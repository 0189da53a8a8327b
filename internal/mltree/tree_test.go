package mltree

import (
	"math"
	"testing"
	"testing/quick"

	"cordial/internal/xrand"
)

// newTree returns a tree classifier; rng drives feature subsampling, and nil
// considers every feature deterministically.
func newTree(cfg TreeConfig, rng *xrand.RNG) *Tree {
	return &Tree{Config: cfg, rng: rng}
}

// treeDepth returns the height of a fitted tree's subtree at node i (0 for
// a leaf).
func treeDepth(t *Tree, i uint32) int {
	if n := t.arena.nodes[i]; !n.isLeaf() {
		return 1 + max(treeDepth(t, n.children()), treeDepth(t, n.children()+1))
	}
	return 0
}

// numLeaves returns a fitted tree's leaf count.
func numLeaves(t *Tree) int { return (len(t.arena.nodes) + 1) / 2 }

func TestTreeLearnsSeparableBlobs(t *testing.T) {
	train := blobs(1, 3, 150, 4, 20, 1)
	test := blobs(2, 3, 50, 4, 20, 1)
	tree := newTree(TreeConfig{MaxDepth: 8}, nil)
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, test); acc < 0.95 {
		t.Fatalf("tree accuracy on separable blobs = %.3f", acc)
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; a depth-2 tree handles it.
	r := xrand.New(7)
	ds := &Dataset{}
	for i := 0; i < 400; i++ {
		a, b := r.Bool(0.5), r.Bool(0.5)
		x := []float64{bTo(a) + r.Normal(0, 0.1), bTo(b) + r.Normal(0, 0.1)}
		label := 0
		if a != b {
			label = 1
		}
		ds.Features = append(ds.Features, x)
		ds.Labels = append(ds.Labels, label)
	}
	tree := newTree(TreeConfig{MaxDepth: 3}, nil)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, ds); acc < 0.95 {
		t.Fatalf("tree accuracy on XOR = %.3f", acc)
	}
}

func bTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	train := blobs(3, 4, 100, 3, 5, 2)
	for _, depth := range []int{1, 2, 5} {
		tree := newTree(TreeConfig{MaxDepth: depth}, nil)
		if err := tree.Fit(train); err != nil {
			t.Fatal(err)
		}
		if got := treeDepth(tree, 0); got > depth {
			t.Fatalf("tree depth %d exceeds cap %d", got, depth)
		}
	}
}

func TestTreePureDataYieldsLeaf(t *testing.T) {
	ds := &Dataset{
		Features: [][]float64{{1, 2}, {3, 4}, {5, 6}},
		Labels:   []int{9, 9, 9},
	}
	tree := newTree(TreeConfig{}, nil)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if treeDepth(tree, 0) != 0 || numLeaves(tree) != 1 {
		t.Fatalf("pure-data tree depth=%d leaves=%d", treeDepth(tree, 0), numLeaves(tree))
	}
	probs := tree.PredictProba([]float64{0, 0})
	if len(probs) != 1 || probs[0] != 1 {
		t.Fatalf("pure-data probs = %v", probs)
	}
}

func TestTreeConstantFeatures(t *testing.T) {
	// All features identical: no split possible, majority leaf.
	ds := &Dataset{
		Features: [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}},
		Labels:   []int{0, 0, 0, 1},
	}
	tree := newTree(TreeConfig{}, nil)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if numLeaves(tree) != 1 {
		t.Fatalf("constant-feature tree has %d leaves", numLeaves(tree))
	}
	if got := Predict(tree, []float64{1, 1}); got != 0 {
		t.Fatalf("majority prediction = %d", got)
	}
}

func TestTreeDeterministicWithoutRNG(t *testing.T) {
	train := blobs(6, 3, 80, 4, 10, 2)
	fit := func() *Tree {
		tree := newTree(TreeConfig{MaxDepth: 6}, nil)
		if err := tree.Fit(train); err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a, b := fit(), fit()
	probe := blobs(7, 3, 20, 4, 10, 2)
	for _, x := range probe.Features {
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("tree fit not deterministic")
			}
		}
	}
}

func TestTreeProbaSumsToOneProperty(t *testing.T) {
	train := blobs(8, 3, 60, 3, 10, 2)
	tree := newTree(TreeConfig{MaxDepth: 6}, nil)
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		probs := tree.PredictProba([]float64{a, b, c})
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRejectsInvalidDataset(t *testing.T) {
	tree := newTree(TreeConfig{}, nil)
	if err := tree.Fit(&Dataset{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func BenchmarkTreeFit(b *testing.B) {
	train := blobs(1, 3, 200, 10, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := newTree(TreeConfig{MaxDepth: 8}, nil)
		if err := tree.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreePredict(b *testing.B) {
	train := blobs(1, 3, 200, 10, 10, 3)
	tree := newTree(TreeConfig{MaxDepth: 8}, nil)
	if err := tree.Fit(train); err != nil {
		b.Fatal(err)
	}
	x := train.Features[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.PredictProba(x)
	}
}
