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

	// bin is the split's histogram bin for trees grown over pre-binned
	// features ("binned[i][Feature] <= bin" is equivalent to
	// "x[Feature] <= Threshold" for every training row). It exists only
	// during training — not serialised, not needed for inference.
	bin int
}

func (n *treeNode) isLeaf() bool { return n.Left == nil && n.Right == nil }

// navigate walks the tree for sample x and returns the leaf.
func (n *treeNode) navigate(x []float64) *treeNode {
	cur := n
	for !cur.isLeaf() {
		if x[cur.Feature] <= cur.Threshold {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur
}

// navigateBinned walks a tree grown over pre-binned features using a binned
// row, avoiding the float comparisons (and the raw feature matrix) entirely.
// Valid only for nodes whose bin field was set during histogram growth; the
// descent is bit-identical to navigate on the raw row.
func (n *treeNode) navigateBinned(row []uint16) *treeNode {
	cur := n
	for !cur.isLeaf() {
		if int(row[cur.Feature]) <= cur.bin {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur
}

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

// radixSortPairs stably sorts idx by keys with an LSD byte radix — no
// comparator calls, so it runs several times faster than a comparison sort
// on these sizes. keysAlt/idxAlt are same-length scratch. Passes whose byte
// is constant across all keys (common: exponent bytes of same-scale
// features) are skipped. Returns the sorted keys and index slice (the
// arguments or the scratch, depending on pass parity).
func radixSortPairs(keys []uint64, idx []int32, keysAlt []uint64, idxAlt []int32) ([]uint64, []int32) {
	var counts [256]int
	for shift := 0; shift < 64; shift += 8 {
		first := byte(keys[0] >> shift)
		constant := true
		counts = [256]int{}
		for _, k := range keys {
			b := byte(k >> shift)
			counts[b]++
			constant = constant && b == first
		}
		if constant {
			continue
		}
		pos := 0
		for b := range counts {
			c := counts[b]
			counts[b] = pos
			pos += c
		}
		for i, k := range keys {
			b := byte(k >> shift)
			p := counts[b]
			counts[b] = p + 1
			keysAlt[p] = k
			idxAlt[p] = idx[i]
		}
		keys, keysAlt = keysAlt, keys
		idx, idxAlt = idxAlt, idx
	}
	return keys, idx
}

// presortByFeature returns, for every feature, the sample indices ordered by
// that feature's value — the one sort a boosting fit pays; its trees maintain
// these orders down the recursion by stable partition. (Classification trees
// train on value codes instead: coded.go.) Features sort independently in
// parallel; the orders are identical for any worker count.
func presortByFeature(cols [][]float64, samples []int) [][]int32 {
	numFeatures := len(cols)
	sorted := make([][]int32, numFeatures)
	want := 1
	if len(samples)*numFeatures >= minParallelSplitWork {
		want = numFeatures
	}
	n := len(samples)
	backing := make([]int32, numFeatures*n)
	// Per worker, not per feature: n keys and n indices, and as many again
	// for the radix passes to alternate with.
	keys := make([][]uint64, maxExtraWorkers+1)
	idx := make([][]int32, maxExtraWorkers+1)
	runWorkers(numFeatures, want, func(worker, f int) {
		if keys[worker] == nil {
			keys[worker], idx[worker] = make([]uint64, 2*n), make([]int32, 2*n)
		}
		k, ix, col := keys[worker], idx[worker], cols[f]
		for i, s := range samples {
			ix[i] = int32(s)
			k[i] = orderableBits(col[s])
		}
		seg := backing[f*n : (f+1)*n]
		_, order := radixSortPairs(k[:n], ix[:n], k[n:], ix[n:])
		copy(seg, order)
		sorted[f] = seg
	})
	return sorted
}

// partitioner performs the stable in-place partition of per-feature sorted
// lists at each split. The lists must be segments of per-feature arenas:
// left entries compact to the segment's front, right entries to its back,
// and children receive subslices of the same memory — zero list allocation
// per node. One membership buffer and per-worker copy buffers are reused
// down the (serial) recursion.
type partitioner struct {
	inLeft []bool    // split membership, indexed by sample id
	bufs   [][]int32 // per-worker right-side copy buffers
	n      int       // sample-id space size (len(cols[0]))
}

func newPartitioner(n int) *partitioner {
	return &partitioner{
		inLeft: make([]bool, n),
		bufs:   make([][]int32, maxExtraWorkers+1),
		n:      n,
	}
}

// split partitions every feature's list around the chosen split, preserving
// order, and returns views of the left/right segments. Membership is a byte
// lookup in inLeft, marked from the split feature's first nl sorted
// entries — exactly the samples with value <= threshold. Features partition
// independently in parallel.
func (p *partitioner) split(sorted [][]int32, feat, nl int) (left, right [][]int32) {
	for _, i := range sorted[feat][:nl] {
		p.inLeft[i] = true
	}
	m := len(sorted[0])
	left = make([][]int32, len(sorted))
	right = make([][]int32, len(sorted))
	want := 1
	if m*len(sorted) >= minParallelSplitWork {
		want = len(sorted)
	}
	runWorkers(len(sorted), want, func(worker, f int) {
		buf := p.bufs[worker]
		if buf == nil {
			buf = make([]int32, p.n)
			p.bufs[worker] = buf
		}
		lst := sorted[f]
		w, nr := 0, 0
		for _, i := range lst {
			if p.inLeft[i] {
				lst[w] = i
				w++
			} else {
				buf[nr] = i
				nr++
			}
		}
		copy(lst[w:], buf[:nr])
		left[f] = lst[:w]
		right[f] = lst[w:]
	})
	for _, i := range left[feat] {
		p.inLeft[i] = false
	}
	return left, right
}

// splitCand is one feature's best split, produced independently per feature
// so split search can fan out across features and still reduce in
// deterministic candidate order.
type splitCand struct {
	gain float64
	feat int
	thr  float64
	nl   int // left-child size (exact-split paths)
	bin  int // split bin (HistGBDT) or value code (grower): at most bin goes left
	ok   bool
}

// regTree grows regression trees on gradient/hessian pairs with the
// XGBoost-style regularised gain; it is the weak learner inside GBDT.
type regTree struct {
	maxDepth int
	rng      *xrand.RNG
	maxFeat  int

	cols [][]float64 // column-major feature matrix (see columnize)
	grad []float64
	hess []float64

	// part performs the in-place list partition at each split; shared
	// across a boosting chain's rounds (recursion is serial per chain).
	part *partitioner

	// cand is the candidate-feature buffer, redrawn at every node (a node is
	// done with its candidates before its children draw theirs).
	cand []int
}

// fit grows the tree over the given sample indices and returns its root.
func (r *regTree) fit(samples []int) *treeNode {
	return r.build(presortByFeature(r.cols, samples), 0)
}

func (r *regTree) build(sorted [][]int32, depth int) *treeNode {
	samples := sorted[0]
	n := len(samples)
	var g, h float64
	for _, i := range samples {
		g += r.grad[i]
		h += r.hess[i]
	}
	leaf := func() *treeNode {
		return &treeNode{Value: -g / (h + lambda)}
	}
	if n < 2 || depth >= r.maxDepth {
		return leaf()
	}
	feat, thr, nl, ok := r.bestSplit(sorted, g, h)
	if !ok {
		return leaf()
	}
	if r.part == nil {
		r.part = newPartitioner(len(r.cols[0]))
	}
	left, right := r.part.split(sorted, feat, nl)
	return &treeNode{
		Feature:   feat,
		Threshold: thr,
		Left:      r.build(left, depth+1),
		Right:     r.build(right, depth+1),
	}
}

// bestSplit maximises the XGBoost structure-score gain
// 0.5*(GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)), fanning candidate features
// out over the shared worker pool. Each feature is scored independently and
// the winners reduce in candidate order with a strict greater-than, which
// reproduces a serial scan's tie-breaking (first feature, then first
// threshold, to reach the maximum) bit for bit.
func (r *regTree) bestSplit(sorted [][]int32, g, h float64) (feat int, thr float64, nl int, ok bool) {
	candidates := r.featureCandidates(len(sorted))

	cands := make([]splitCand, len(candidates))
	want := 1
	if len(sorted[0])*len(candidates) >= minParallelSplitWork {
		want = len(candidates)
	}
	runWorkers(len(candidates), want, func(_, ci int) {
		cands[ci] = r.evalFeature(candidates[ci], sorted[candidates[ci]], g, h)
	})

	bestGain := 0.0
	for _, c := range cands {
		if c.ok && c.gain > bestGain {
			bestGain, feat, thr, nl, ok = c.gain, c.feat, c.thr, c.nl, true
		}
	}
	return feat, thr, nl, ok
}

// evalFeature scores every threshold of one feature against the regularised
// gain in one pass over its presorted sample list, returning the first
// threshold attaining the feature's maximum.
func (r *regTree) evalFeature(f int, list []int32, g, h float64) splitCand {
	score := func(gs, hs float64) float64 { return gs * gs / (hs + lambda) }
	parent := score(g, h)

	col := r.cols[f]
	if col[list[0]] == col[list[len(list)-1]] {
		return splitCand{}
	}
	best := splitCand{feat: f}
	var gl, hl float64
	for i := 0; i < len(list)-1; i++ {
		gl += r.grad[list[i]]
		hl += r.hess[list[i]]
		v, vNext := col[list[i]], col[list[i+1]]
		if v == vNext {
			continue
		}
		gr, hr := g-gl, h-hl
		if hl < minChildWeight || hr < minChildWeight {
			continue
		}
		gain := 0.5 * (score(gl, hl) + score(gr, hr) - parent)
		if gain > best.gain {
			best.gain = gain
			best.thr = (v + vNext) / 2
			best.nl = i + 1
			best.ok = true
		}
	}
	return best
}

func (r *regTree) featureCandidates(numFeatures int) []int {
	if r.maxFeat >= numFeatures || r.rng == nil {
		all := make([]int, numFeatures)
		for i := range all {
			all[i] = i
		}
		return all
	}
	r.cand = r.rng.SampleIntsInto(r.cand, numFeatures, r.maxFeat)
	return r.cand
}
