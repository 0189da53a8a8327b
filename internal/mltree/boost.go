package mltree

import (
	"math"

	"cordial/internal/xrand"
)

// Regression-tree growth for both boosters over the coded matrix (DESIGN §7).
// A leaf's histogram holds, per bin of each feature, its samples' gradient and
// hessian sums, added in its sample order, and their count. A split partitions
// the leaf's samples stably, builds the smaller child's histogram and derives
// the larger's by subtraction. GBDT's exact mode bins by value code; HistGBDT's
// histogram mode by runs of codes (histBins).

// boostGrower grows one boosting chain's trees, reusing its buffers.
type boostGrower struct {
	fitRows
	minLeaf  int       // the fewest samples a child holds
	maxDepth int       // exact mode's bound; histogram mode has none
	bin      [][]uint8 // histogram mode: bin[f][code]; nil in exact mode
	cut      [][]int32 // histogram mode: cut[f][b], the largest code of bin b
	offset   []int     // feature f's bins are cells offset[f] to offset[f+1]
	maxFeat  int
	rng      *xrand.RNG // draws a node's candidate features when maxFeat is short
	all      []int      // every feature in order
	cand     []int

	grad, hess []float64 // of the tree being grown, weighted
	ids        []int32   // the tree's samples; a leaf owns a segment, partitioned stably
	right      []int32   // the partition's scratch
	free       [][]cell  // histograms no leaf holds
}

// cell is a bin of a feature in a leaf's histogram.
type cell struct {
	g, h float64
	n    int32
}

// boostLeaf is a leaf of the tree being grown.
type boostLeaf struct {
	node   *treeNode
	lo, hi int // its samples, ids[lo:hi]
	depth  int
	g, h   float64
	sums   []cell    // nil when the leaf will not be searched
	best   splitCand // bin is the split's code: samples coded at most bin go left
}

// newBoostGrower returns a grower over fr's codes, in histogram mode if hist.
func newBoostGrower(fr fitRows, hist bool) *boostGrower {
	b := &boostGrower{fitRows: fr, minLeaf: 1, maxDepth: math.MaxInt, offset: make([]int, len(fr.codes)+1),
		all: make([]int, len(fr.codes)), maxFeat: len(fr.codes), right: make([]int32, fr.n)}
	if hist {
		b.minLeaf, b.bin, b.cut = histMinLeaf, make([][]uint8, len(fr.codes)), make([][]int32, len(fr.codes))
	}
	for f := range b.all {
		b.all[f], b.offset[f+1] = f, b.offset[f]+len(fr.vals[f])
		if hist {
			b.bin[f], b.cut[f] = histBins(fr, f)
			b.offset[f+1] = b.offset[f] + len(b.cut[f]) + 1
		}
	}
	return b
}

// start begins a tree over samples, their gradients and hessians weighted.
func (b *boostGrower) start(samples []int, grad, hess []float64) *boostLeaf {
	b.grad, b.hess, b.ids = grad, hess, b.ids[:0]
	for _, i := range samples {
		b.ids = append(b.ids, int32(i))
	}
	root := &boostLeaf{node: &treeNode{}, hi: len(b.ids)}
	root.g, root.h = b.sum(root)
	if b.searchable(root) {
		b.build(root)
	}
	return root
}

// growDepthFirst grows l's subtree in exact mode: l, its whole left subtree,
// then its right, each node drawing its candidate features as it is searched.
func (b *boostGrower) growDepthFirst(l *boostLeaf) *treeNode {
	if b.search(l); !l.best.ok {
		b.finish(l)
		return l.node
	}
	left, right := b.split(l)
	b.growDepthFirst(left)
	b.growDepthFirst(right)
	return l.node
}

// growBestFirst grows root's tree in histogram mode: while there are fewer
// than maxLeaves leaves, it splits the first whose best split gains most.
func (b *boostGrower) growBestFirst(root *boostLeaf, maxLeaves int) *treeNode {
	b.search(root)
	leaves := []*boostLeaf{root}
	for len(leaves) < maxLeaves {
		best := -1
		for i, l := range leaves {
			if l.best.ok && (best < 0 || l.best.gain > leaves[best].best.gain) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		left, right := b.split(leaves[best])
		b.search(left)
		b.search(right)
		leaves[best] = left
		leaves = append(leaves, right)
	}
	for _, l := range leaves {
		b.finish(l)
	}
	return root.node
}

func (b *boostGrower) searchable(l *boostLeaf) bool {
	return l.hi-l.lo >= 2*b.minLeaf && l.depth < b.maxDepth
}

// sum returns the gradient and hessian sums of l's samples, in their order.
func (b *boostGrower) sum(l *boostLeaf) (g, h float64) {
	for _, i := range b.ids[l.lo:l.hi] {
		g += b.grad[i]
		h += b.hess[i]
	}
	return g, h
}

// build gives l its histogram, features fanned out over the shared worker
// pool: each cell's sums run in l's sample order whoever adds them.
func (b *boostGrower) build(l *boostLeaf) {
	if n := len(b.free) - 1; n < 0 {
		l.sums = make([]cell, b.offset[len(b.all)])
	} else {
		l.sums, b.free = b.free[n], b.free[:n]
		clear(l.sums)
	}
	seg, want := b.ids[l.lo:l.hi], 1
	if len(seg)*len(b.all) >= minParallelSplitWork {
		want = len(b.all)
	}
	runWorkers(len(b.all), want, func(_, f int) {
		switch cells, col := l.sums[b.offset[f]:b.offset[f+1]], b.codes[f]; {
		case col.u32 != nil:
			addBins(b, cells, f, seg, col.u32)
		case col.u16 != nil:
			addBins(b, cells, f, seg, col.u16)
		default:
			addBins(b, cells, f, seg, col.u8)
		}
	})
}

// addBins adds the samples of seg to feature f's cells: to the cell of each
// one's code, or in histogram mode of its bin.
func addBins[T code](b *boostGrower, cells []cell, f int, seg []int32, codes []T) {
	var bin []uint8
	if b.bin != nil {
		bin = b.bin[f]
	}
	for _, i := range seg {
		c := int(codes[b.row(int(i))])
		if bin != nil {
			c = int(bin[c])
		}
		cells[c].g += b.grad[i]
		cells[c].h += b.hess[i]
		cells[c].n++
	}
}

// drop returns l's histogram, if it has one, to the free list.
func (b *boostGrower) drop(l *boostLeaf) {
	if l.sums != nil {
		b.free, l.sums = append(b.free, l.sums), nil
	}
}

// search leaves in l.best the split of l's candidate features that gains most
// (the first feature in candidate order, then the first boundary, to reach the
// most), if l may be split and one gains anything.
func (b *boostGrower) search(l *boostLeaf) {
	l.best = splitCand{}
	if !b.searchable(l) {
		return
	}
	cand := b.all
	if b.maxFeat < len(cand) && b.rng != nil {
		b.cand = b.rng.SampleIntsInto(b.cand, len(cand), b.maxFeat)
		cand = b.cand
	}
	cands, want := make([]splitCand, len(cand)), 1
	if (l.hi-l.lo)*len(cand) >= minParallelSplitWork {
		want = len(cand)
	}
	runWorkers(len(cand), want, func(_, k int) { cands[k] = b.scan(l, cand[k]) })
	for _, c := range cands {
		if c.ok && c.gain > l.best.gain {
			l.best = c
		}
	}
}

// scan returns feature f's best split of l under the regularised gain
// 0.5*(GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)), walking its bins in order. In
// exact mode only codes l holds bound a split, and the threshold lies midway
// between two; in histogram mode it is the left bin's upper value.
func (b *boostGrower) scan(l *boostLeaf, f int) splitCand {
	score := func(gs, hs float64) float64 { return gs * gs / (hs + lambda) }
	parent, n := score(l.g, l.h), l.hi-l.lo
	best, vals := splitCand{feat: f}, b.vals[f]
	var gl, hl float64
	nl, prev := 0, -1
	for c, s := range l.sums[b.offset[f]:b.offset[f+1]] {
		if b.bin == nil && s.n == 0 {
			continue
		}
		if prev >= 0 && nl >= b.minLeaf && n-nl >= b.minLeaf {
			gr, hr := l.g-gl, l.h-hl
			if hl >= minChildWeight && hr >= minChildWeight {
				if gain := 0.5 * (score(gl, hl) + score(gr, hr) - parent); gain > best.gain {
					best.gain, best.ok = gain, true
					if b.bin == nil {
						best.bin, best.thr = prev, (vals[prev]+vals[c])/2
					} else {
						best.bin = int(b.cut[f][prev])
						best.thr = vals[best.bin]
					}
				}
			}
		}
		gl, hl, nl, prev = gl+s.g, hl+s.h, nl+int(s.n), c
	}
	return best
}

// split makes l's best split: it partitions l's samples stably and gives the
// smaller child its sums and, when the children may be split, its histogram,
// deriving the larger child's by subtraction from l's.
func (b *boostGrower) split(l *boostLeaf) (left, right *boostLeaf) {
	s, seg, w, r := l.best, b.ids[l.lo:l.hi], 0, b.right[:0]
	for _, i := range seg {
		if b.codes[s.feat].at(b.row(int(i))) <= s.bin {
			seg[w], w = i, w+1
		} else {
			r = append(r, i)
		}
	}
	copy(seg[w:], r)
	l.node.Feature, l.node.Threshold = s.feat, s.thr
	l.node.Left, l.node.Right = &treeNode{}, &treeNode{}
	left = &boostLeaf{node: l.node.Left, lo: l.lo, hi: l.lo + w, depth: l.depth + 1}
	right = &boostLeaf{node: l.node.Right, lo: l.lo + w, hi: l.hi, depth: l.depth + 1}
	small, large := left, right
	if len(r) < w {
		small, large = right, left
	}
	small.g, small.h = b.sum(small)
	large.g, large.h = l.g-small.g, l.h-small.h
	if b.searchable(large) {
		b.build(small)
		for k, c := range small.sums {
			l.sums[k].g -= c.g
			l.sums[k].h -= c.h
			l.sums[k].n -= c.n
		}
		large.sums, l.sums = l.sums, nil
		if !b.searchable(small) {
			b.drop(small)
		}
	}
	b.drop(l)
	return left, right
}

// finish makes l a leaf of its Newton step's value.
func (b *boostGrower) finish(l *boostLeaf) {
	l.node.Value = -l.g / (l.h + lambda)
	b.drop(l)
}
