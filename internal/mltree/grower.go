package mltree

import (
	"math"
	"slices"

	"cordial/internal/xrand"
)

// Classification-tree training over value codes (DESIGN §7).
//
// A forest member scores round(√d) of d features per node, so keeping d
// presorted sample lists current down the tree sorts six times what it
// scores. Instead a dataset is coded once (coded.go: a row's code is its
// value's rank among the feature's distinct values), a tree grows over one
// list of its distinct in-bag rows, and a candidate feature is put in value
// order only to be scored: by a class-count histogram over its codes, or by
// sorting the node's (code, row) keys when it has far more values than the
// node has rows. Both walk the boundaries between consecutive *present*
// values in ascending order with integer-valued class counts either side —
// what a scan of the bag sorted by that feature sees: same impurity operands,
// tie-breaks, (v+vNext)/2 thresholds and pre-order RNG draws, so
// bit-identical trees (TestGrowerMatchesReference).
//
// Fitting on a view (Dataset.Subset) codes nothing: the bag is drawn over the
// view's samples and grown over the source's codes, a row's multiplicity
// summed over the samples that are that row. The tree is the one a fit on a
// copy of those samples grows (TestViewFitMatchesCopyFit): the source's codes
// order the view's values as its own would, a threshold lies between two
// present values whatever absent ones the source knows between them, a
// feature constant on the view scans to no boundary, and the class counts are
// integers, so the order of rows within a node is immaterial.
//
// GBDT's regTree keeps presorted lists and the partitioner: a boosted tree
// scores ~all features at every node (ColsampleRatio), so every list it keeps
// sorted it reads, and its gradient sums are order-dependent floats that a
// histogram would re-associate. The two trainers share the radix sort and the
// worker pool and nothing else.

// histCutover scores a candidate feature by histogram when it has at most
// histCutover distinct values per row of the node, by sorting otherwise.
// Fit time on the block dataset is flat from 4 to 32 (DESIGN §7); a variable
// only so tests can force either path.
var histCutover = 8

// classData is the read-only training state the members of one fit share: the
// coded matrix, and which of its rows the fit's n samples are.
type classData struct {
	*codedMatrix
	k    int     // classes
	y    []int32 // class index by row (of the rows that are samples)
	n    int     // samples
	rows []int32 // rows[i]: the row sample i is; nil: sample i is row i
}

// newClassData reads ds for a fit: its own codes, or for a view its source's.
func newClassData(ds *Dataset, classes []int) *classData {
	src, rows := ds.source()
	cd := &classData{codedMatrix: src.codes(), k: len(classes), n: ds.NumSamples(), rows: rows}
	cd.y = make([]int32, src.NumSamples())
	idx := classIndex(classes)
	for i, l := range ds.Labels {
		cd.y[cd.row(i)] = int32(idx[l])
	}
	return cd
}

// row returns the row of the coded matrix that sample i is.
func (cd *classData) row(i int) int {
	if cd.rows == nil {
		return i
	}
	return int(cd.rows[i])
}

// grower grows classification trees one after another over one classData. It
// owns every buffer growth needs, so a worker's grower is reused across the
// members it fits and a tree costs two allocations: its nodes and its leaf
// probabilities, exactly sized.
type grower struct {
	cd      *classData
	cfg     TreeConfig
	maxFeat int
	rng     *xrand.RNG // of the tree being grown; nil scores every feature

	mult  []int32 // bootstrap multiplicity by row; the caller fills it
	ids   []int32 // the tree's distinct rows; a node owns a segment, partitioned in place
	spill []int32 // right-hand side of a partition in flight

	hist   []int32   // class counts by value code (k per code); all zero between scans
	keys   []uint64  // code<<32|row of one node, for the sort path
	counts []float64 // class counts by depth (k per level): a node's, then each child's in turn
	all    []int     // every feature in order
	cand   []int     // candidate features drawn for the node being split

	// The scan in flight: the node's size and impurity, the class counts
	// left and right of the boundary being scored, and the best split so far
	// with the left counts it had.
	n           int
	parentImp   float64
	left, right []float64
	best        splitCand // bin is the value code: samples coded at most bin go left
	bestLeft    []float64

	// The tree being grown, in pre-order: a node's left child follows it.
	nodes []grownNode
	probs []float64
}

// grownNode is a node of a grownTree: feature < 0 marks a leaf, whose payload
// starts at leaf[at]; a split's right child is nodes[at].
type grownNode struct {
	feature   int32
	at        int32
	threshold float64
}

// grownTree is a tree in pre-order — a node's left child follows it — as
// training hands it to compileArena, which is all that ever reads one.
type grownTree struct {
	nodes []grownNode
	leaf  []float64
}

func newGrower(cd *classData, cfg TreeConfig) *grower {
	n, d, k := len(cd.y), len(cd.codes), cd.k
	maxDistinct := 0
	for _, v := range cd.vals {
		maxDistinct = max(maxDistinct, len(v))
	}
	bag := min(n, cd.n) // a tree's distinct rows at most
	g := &grower{
		cd:       cd,
		cfg:      cfg,
		maxFeat:  cfg.resolveMaxFeatures(d),
		mult:     make([]int32, n),
		ids:      make([]int32, bag),
		spill:    make([]int32, bag),
		hist:     make([]int32, maxDistinct*k),
		keys:     make([]uint64, bag),
		all:      make([]int, d),
		left:     make([]float64, k),
		right:    make([]float64, k),
		bestLeft: make([]float64, k),
	}
	for f := range g.all {
		g.all[f] = f
	}
	return g
}

// fit grows one tree over the rows with mult[i] > 0, each counted mult[i]
// times, and returns it as one node array and one probability array.
func (g *grower) fit(rng *xrand.RNG) grownTree {
	g.rng = rng
	g.nodes, g.probs = g.nodes[:0], g.probs[:0]
	k := g.cd.k
	g.counts = append(g.counts[:0], make([]float64, k)...)
	ids, bag := g.ids[:0], 0
	for i, m := range g.mult {
		if m > 0 {
			ids = append(ids, int32(i))
			g.counts[g.cd.y[i]] += float64(m)
			bag += int(m)
		}
	}
	g.grow(0, len(ids), bag, 0)

	return grownTree{nodes: slices.Clone(g.nodes), leaf: slices.Clone(g.probs)}
}

// grow appends the subtree over ids[lo:hi] — n samples counting multiplicity,
// their class counts at level depth of g.counts — to g.nodes.
func (g *grower) grow(lo, hi, n, depth int) {
	k := g.cd.k
	counts := g.counts[depth*k : (depth+1)*k]
	self := len(g.nodes)
	g.nodes = append(g.nodes, grownNode{feature: -1, at: int32(len(g.probs))})
	if n < 2 ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) ||
		isPure(counts) || !g.bestSplit(g.ids[lo:hi], n, counts) {
		for _, c := range counts {
			g.probs = append(g.probs, c/float64(n))
		}
		return
	}
	s := g.best

	// Stable partition of the node's segment around the split.
	codes, w, spilled := g.cd.codes[s.feat], lo, 0
	for _, i := range g.ids[lo:hi] {
		if codes[i] <= int32(s.bin) {
			g.ids[w] = i
			w++
		} else {
			g.spill[spilled] = i
			spilled++
		}
	}
	copy(g.ids[w:hi], g.spill[:spilled])

	// The level below holds the left child's counts while the left subtree
	// grows (deeper nodes write deeper levels), then the right child's.
	if len(g.counts) < (depth+2)*k {
		g.counts = append(g.counts, make([]float64, k)...)
	}
	copy(g.counts[(depth+1)*k:], g.bestLeft)
	g.grow(lo, w, s.nl, depth+1)
	counts = g.counts[depth*k : (depth+1)*k] // the stack may have moved
	for c, l := range g.counts[(depth+1)*k : (depth+2)*k] {
		g.counts[(depth+1)*k+c] = counts[c] - l
	}
	g.nodes[self] = grownNode{feature: int32(s.feat), threshold: s.thr, at: int32(len(g.nodes))}
	g.grow(w, hi, n-s.nl, depth+1)
}

// bestSplit scores the node's candidate features in candidate order and
// leaves in g.best the first threshold to reach the largest impurity decrease
// above minClassGain, reporting whether there is one.
func (g *grower) bestSplit(seg []int32, n int, counts []float64) bool {
	cand := g.all
	if g.maxFeat < len(cand) && g.rng != nil {
		g.cand = g.rng.SampleIntsInto(g.cand, len(cand), g.maxFeat)
		cand = g.cand
	}
	g.n = n
	g.parentImp = gini(counts, float64(n))
	g.best = splitCand{gain: minClassGain}
	for _, f := range cand {
		distinct := len(g.cd.vals[f])
		if distinct == 1 {
			continue
		}
		clear(g.left)
		copy(g.right, counts)
		if distinct <= histCutover*len(seg) {
			g.scanHistogram(f, seg)
		} else {
			g.scanSorted(f, seg)
		}
	}
	return g.best.ok
}

// scanHistogram scores feature f over seg by accumulating class counts per
// value code and walking the codes the node holds in ascending order.
func (g *grower) scanHistogram(f int, seg []int32) {
	cd, k := g.cd, g.cd.k
	codes := cd.codes[f]
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, i := range seg {
		c := codes[i]
		g.hist[int(c)*k+int(cd.y[i])] += g.mult[i]
		lo, hi = min(lo, c), max(hi, c)
	}
	prev, nl := int32(-1), 0
	for c := lo; c <= hi; c++ {
		h := g.hist[int(c)*k : int(c+1)*k]
		here := int32(0)
		for _, v := range h {
			here += v
		}
		if here == 0 {
			continue
		}
		if prev >= 0 {
			g.boundary(f, prev, c, nl)
		}
		for j, v := range h {
			g.left[j] += float64(v)
			g.right[j] -= float64(v)
			h[j] = 0
		}
		nl += int(here)
		prev = c
	}
}

// scanSorted scores feature f over seg by sorting the node's samples by code.
func (g *grower) scanSorted(f int, seg []int32) {
	cd := g.cd
	codes := cd.codes[f]
	keys := g.keys[:len(seg)]
	for j, i := range seg {
		keys[j] = uint64(codes[i])<<32 | uint64(i)
	}
	slices.Sort(keys)
	prev, nl := int32(keys[0]>>32), 0
	for _, key := range keys {
		c, i := int32(key>>32), uint32(key)
		if c != prev {
			g.boundary(f, prev, c, nl)
			prev = c
		}
		m := g.mult[i]
		g.left[cd.y[i]] += float64(m)
		g.right[cd.y[i]] -= float64(m)
		nl += int(m)
	}
}

// boundary scores the threshold between consecutive present codes prev < next
// of feature f, nl samples to its left, with g.left and g.right the class
// counts either side of it. Both sides hold a present code, so neither is
// empty.
func (g *grower) boundary(f int, prev, next int32, nl int) {
	n := float64(g.n)
	cl, cr := float64(nl), n-float64(nl)
	childImp := (cl*gini(g.left, cl) + cr*gini(g.right, cr)) / n
	if gain := g.parentImp - childImp; gain > g.best.gain {
		vals := g.cd.vals[f]
		g.best = splitCand{gain: gain, feat: f, thr: (vals[prev] + vals[next]) / 2, nl: nl, bin: int(prev), ok: true}
		copy(g.bestLeft, g.left)
	}
}

// minClassGain is the impurity-decrease floor below which a classification
// split is not worth making.
const minClassGain = 1e-12

func isPure(counts []float64) bool {
	nonZero := 0
	for _, c := range counts {
		if c > 0 {
			nonZero++
		}
	}
	return nonZero <= 1
}

// gini is the Gini impurity of class counts summing to n > 0.
func gini(counts []float64, n float64) float64 {
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}
