package mltree

// Flat ensembles: fitted pointer trees recompiled into one struct-of-arrays
// node arena for inference. Pointer navigation chases one heap node per
// level; the arena keeps features, thresholds and child indices in dense
// slices shared by every tree of the model, so a descent touches a handful
// of cache lines and the branch predictor sees one tight loop. Compilation
// preserves the exact comparison sequence (same feature, same threshold,
// same ≤ test), so flat predictions are bit-identical to pointer
// navigation; equivalence_test.go asserts it.
//
// The arena is a derived, in-memory artifact: serialization still writes
// the pointer form, and loading recompiles (see serialize.go), which keeps
// the on-disk format unchanged.

// flatEnsemble is a model's trees compiled back-to-back into one node
// arena, navigated from per-tree root indices. Leaves carry feature ==
// flatLeaf and, in left, the offset of their payload in leaf: width values
// per leaf — one regression value for a boosting chain, or one probability
// per class of the *model's* class list for a tree or forest (a member
// fitted on a bag that missed a class is aligned here, once, at compile
// time).
type flatEnsemble struct {
	feature   []int32
	threshold []float64
	left      []int32
	right     []int32
	leaf      []float64
	width     int
	roots     []int32
}

// flatLeaf marks a leaf node in the feature array.
const flatLeaf = int32(-1)

// newFlatEnsemble sizes an arena for trees full binary trees holding leaves
// leaves between them — 2·leaves − trees nodes — exactly: add appends within
// that capacity, so a live model carries no append slack.
func newFlatEnsemble(width, trees, leaves int) *flatEnsemble {
	nodes := 2*leaves - trees
	return &flatEnsemble{
		feature:   make([]int32, 0, nodes),
		threshold: make([]float64, 0, nodes),
		left:      make([]int32, 0, nodes),
		right:     make([]int32, 0, nodes),
		leaf:      make([]float64, 0, leaves*width),
		width:     width,
		roots:     make([]int32, trees),
	}
}

// compileChain flattens a boosting chain's regression trees.
func compileChain(trees []*treeNode) *flatEnsemble {
	leaves := 0
	for _, t := range trees {
		leaves += t.countLeaves()
	}
	fe := newFlatEnsemble(1, len(trees), leaves)
	for i, t := range trees {
		fe.roots[i] = fe.add(t, nil)
	}
	return fe
}

// compileClassifier flattens classification trees into one arena whose leaf
// rows are aligned to classes. Every tree's own class list must be a subset
// of classes and every leaf must carry one probability per class of its
// tree (Decode checks both for untrusted input).
func compileClassifier(trees []*Tree, classes []int) *flatEnsemble {
	leaves := 0
	for _, t := range trees {
		leaves += t.root.countLeaves()
	}
	fe := newFlatEnsemble(len(classes), len(trees), leaves)
	idx := classIndex(classes)
	cols := make([]int, 0, len(classes)) // non-nil: nil means a regression leaf to add
	for i, t := range trees {
		cols = cols[:0]
		for _, c := range t.classes {
			cols = append(cols, idx[c])
		}
		fe.roots[i] = fe.add(t.root, cols)
	}
	return fe
}

// add appends n's subtree in preorder and returns its node index. A leaf's
// payload is its Value when cols is nil, otherwise a width-wide row with
// Probs[j] at column cols[j] and zero elsewhere.
func (fe *flatEnsemble) add(n *treeNode, cols []int) int32 {
	idx := int32(len(fe.feature))
	fe.feature = append(fe.feature, flatLeaf)
	fe.threshold = append(fe.threshold, n.Threshold)
	fe.left = append(fe.left, 0)
	fe.right = append(fe.right, 0)
	if n.isLeaf() {
		fe.left[idx] = int32(len(fe.leaf))
		if cols == nil {
			fe.leaf = append(fe.leaf, n.Value)
			return idx
		}
		fe.leaf = append(fe.leaf, make([]float64, fe.width)...)
		row := fe.leaf[len(fe.leaf)-fe.width:]
		for j, p := range n.Probs {
			row[cols[j]] = p
		}
		return idx
	}
	fe.feature[idx] = int32(n.Feature)
	l := fe.add(n.Left, cols)
	r := fe.add(n.Right, cols)
	fe.left[idx] = l
	fe.right[idx] = r
	return idx
}

// leafFrom descends from node root and returns the offset in leaf of the
// payload of the leaf x lands in.
func (fe *flatEnsemble) leafFrom(root int32, x []float64) int32 {
	i := root
	for {
		f := fe.feature[i]
		if f == flatLeaf {
			return fe.left[i]
		}
		if x[f] <= fe.threshold[i] {
			i = fe.left[i]
		} else {
			i = fe.right[i]
		}
	}
}

// Both kernels below iterate tree-major over the block — a tree's nodes stay
// cache-hot across the rows — while every row still accumulates in tree
// order, the floating-point sequence of a row-at-a-time walk of the pointer
// trees.

// predictBlock writes the mean leaf distribution over the arena's trees for
// every row of X into dst (row-major, width values per row): the sum in tree
// order, scaled by 1/trees last. It makes *flatEnsemble the blockPredictor
// of a Tree (one root: 0+p and ×1 are exact) and of a Forest.
func (fe *flatEnsemble) predictBlock(dst []float64, X [][]float64) {
	clear(dst)
	k := fe.width
	for _, r := range fe.roots {
		for i, x := range X {
			off := int(fe.leafFrom(r, x))
			row := dst[i*k : (i+1)*k]
			for c, p := range fe.leaf[off : off+k] {
				row[c] += p
			}
		}
	}
	inv := 1 / float64(len(fe.roots))
	for i := range dst {
		dst[i] *= inv
	}
}

// margins writes a boosting chain's margin (log-odds) for each row i of X to
// dst[i*stride]: bias plus lr × leaf-value in tree order, the exact
// floating-point sequence of a pointer walk over the chain.
func (fe *flatEnsemble) margins(dst []float64, stride int, bias, lr float64, X [][]float64) {
	for i := range X {
		dst[i*stride] = bias
	}
	for _, r := range fe.roots {
		for i, x := range X {
			dst[i*stride] += lr * fe.leaf[fe.leafFrom(r, x)]
		}
	}
}
