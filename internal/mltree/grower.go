package mltree

import (
	"math"
	"slices"

	"cordial/internal/xrand"
)

// Classification-tree training over value codes (DESIGN §7). A dataset is
// coded once (coded.go), a tree grows over one list of its distinct in-bag
// rows, and a candidate feature is put in value order only to be scored: by a
// class-count histogram over its codes, or by sorting the node's (code, row)
// keys when it has far more values than the node has rows. Both walk the
// boundaries between consecutive present values with integer class counts
// either side, as a scan of the bag sorted by the feature does, so the trees
// are bit-identical to that scan's (TestGrowerMatchesReference). A fit on a
// view grows over its source's codes, and grows the tree a fit on a copy of
// the view's samples grows (TestViewFitMatchesCopyFit). GBDT's regTree keeps
// presorted lists instead: it scores ~all features at every node, and its
// gradient sums are floats that a histogram would re-associate.

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
// owns every buffer growth needs, the tree's builder included, so a worker's
// grower is reused across the members it fits and a tree allocates nothing of
// its own: its record is a view into the builder's store.
type grower struct {
	cd      *classData
	cfg     TreeConfig
	maxFeat int
	rng     *xrand.RNG // of the tree being grown; nil scores every feature

	mult []int32 // bootstrap multiplicity by row; the caller fills it
	ids  []int32 // the tree's distinct rows; a node owns a segment, partitioned in place

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

	b *builder // the tree being grown
}

func newGrower(cd *classData, cfg TreeConfig) *grower {
	n, d, k := len(cd.y), len(cd.codes), cd.k
	maxDistinct := 0
	for _, v := range cd.vals {
		maxDistinct = max(maxDistinct, len(v))
	}
	sorted := n // the largest node the sort path scores
	if histCutover > 0 {
		sorted = min(n, maxDistinct/histCutover)
	}
	g := &grower{
		cd:       cd,
		cfg:      cfg,
		maxFeat:  cfg.resolveMaxFeatures(d),
		mult:     make([]int32, n),
		hist:     make([]int32, maxDistinct*k),
		keys:     make([]uint64, sorted),
		all:      make([]int, d),
		left:     make([]float64, k),
		right:    make([]float64, k),
		bestLeft: make([]float64, k),
		b:        newBuilder(k),
	}
	for f := range g.all {
		g.all[f] = f
	}
	return g
}

// growerFor returns a grower over cd's codes for cfg: one that a finished fit
// over the same codes and as many classes left, or a new one (a grower's
// buffers depend on nothing else).
func (cd *classData) growerFor(cfg TreeConfig) *grower {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	if n := len(cd.idle) - 1; n >= 0 && cd.idle[n].cd.k == cd.k {
		g := cd.idle[n]
		cd.idle, g.cd, g.cfg, g.maxFeat = cd.idle[:n], cd, cfg, cfg.resolveMaxFeatures(len(cd.codes))
		return g
	}
	return newGrower(cd, cfg)
}

// release leaves a finished fit's growers, their stores emptied, to the next
// fit over its codes: the fit's arena is compiled, so no view is read again.
func (cd *classData) release(growers []*grower) {
	cd.mu.Lock()
	defer cd.mu.Unlock()
	for _, g := range growers {
		if g != nil {
			g.b.used, g.b.free = 0, nil
			cd.idle = append(cd.idle, g)
		}
	}
}

// fit grows one tree over the rows with mult[i] > 0, each counted mult[i]
// times, and returns its record's view.
func (g *grower) fit(rng *xrand.RNG) grownTree {
	g.rng = rng
	g.b.reset()
	k := g.cd.k
	g.counts = append(g.counts[:0], make([]float64, k)...)
	distinct, bag := 0, 0
	for _, m := range g.mult {
		distinct += int(min(m, 1))
	}
	g.ids = slices.Grow(g.ids[:0], distinct+distinct/8) // room for the bags to come
	for i, m := range g.mult {
		if m > 0 {
			g.ids = append(g.ids, int32(i))
			g.counts[g.cd.y[i]] += float64(m)
			bag += int(m)
		}
	}
	g.grow(0, 0, len(g.ids), bag, 0)

	return g.b.tree()
}

// grow lays out at node self the subtree over ids[lo:hi] — n samples counting
// multiplicity, their class counts at level depth of g.counts — appending its
// descendants pair by pair.
func (g *grower) grow(self, lo, hi, n, depth int) {
	k := g.cd.k
	counts := g.counts[depth*k : (depth+1)*k]
	if n < 2 ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) ||
		isPure(counts) || !g.bestSplit(g.ids[lo:hi], n, counts) {
		for c, cnt := range counts {
			g.b.row[c] = math.Float64bits(cnt / float64(n))
		}
		g.b.leafAt(self)
		return
	}
	s := g.best

	// Partition the node's segment around the split, in place: the order of
	// rows within a node scores nothing differently.
	codes, w := g.cd.codes[s.feat], lo
	for r := hi - 1; w <= r; {
		if codes[g.ids[w]] <= int32(s.bin) {
			w++
		} else {
			g.ids[w], g.ids[r] = g.ids[r], g.ids[w]
			r--
		}
	}
	c := g.b.split(self, s.feat, s.thr)

	// The level below holds the left child's counts while the left subtree
	// grows (deeper nodes write deeper levels), then the right child's.
	if len(g.counts) < (depth+2)*k {
		g.counts = append(g.counts, make([]float64, k)...)
	}
	copy(g.counts[(depth+1)*k:], g.bestLeft)
	g.grow(c, lo, w, s.nl, depth+1)
	counts = g.counts[depth*k : (depth+1)*k] // the stack may have moved
	for c, l := range g.counts[(depth+1)*k : (depth+2)*k] {
		g.counts[(depth+1)*k+c] = counts[c] - l
	}
	g.grow(c+1, w, hi, n-s.nl, depth+1)
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
