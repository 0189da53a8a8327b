package mltree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// The compact forest arena (DESIGN §7): the one form a fitted model's trees
// take in memory, for all four model kinds. Per model it holds each feature's
// sorted distinct split thresholds and 8-byte nodes that name a threshold by
// its index in that table. A block of rows is mapped to ranks once —
// rank(x) = |{t ∈ thr[f] : t < x}|, NaN ↦ len(thr[f]) — and x <= thr[f][r]
// holds exactly when rank(x) <= r, so a walk compares small integers and
// reaches the leaf the float comparison would. Model files still hold pointer
// trees: Save rebuilds them from the arena, Load compiles them (serialize.go).

const (
	// arenaLeaf in a node's feature field marks a leaf, so split features lie
	// below it; a threshold table holds at most as many entries, so that the
	// rank of NaN — the table's length — fits a uint16.
	arenaLeaf = 0xFFFF
	// tileRows rows are ranked and walked together: their ranks and one
	// tree's nodes stay in L1/L2 while the kernels go tree-major.
	tileRows = 64
	// rankScratch is the rank tile a kernel keeps on its stack: tileRows rows
	// of up to 64 features. A wider model's tile is allocated.
	rankScratch = tileRows * 64
)

// arenaNode packs children (32 bits), rank (16) and feature (16), high to low,
// in one word: a walk's step is one load. It is a split — go to node children
// if the row's rank on feature is at most rank, to children+1 otherwise — or,
// with feature == arenaLeaf, a leaf whose payload starts at leaf[children].
type arenaNode uint64

func newArenaNode(children uint32, rank, feature uint16) arenaNode {
	return arenaNode(children)<<32 | arenaNode(rank)<<16 | arenaNode(feature)
}

func (n arenaNode) children() uint32 { return uint32(n >> 32) }
func (n arenaNode) rank() uint16     { return uint16(n >> 16) }
func (n arenaNode) feature() uint16  { return uint16(n) }
func (n arenaNode) isLeaf() bool     { return n.feature() == arenaLeaf }

// arena is a model's trees laid out back to back, siblings adjacent, entered
// at roots. A leaf's payload is width values: one regression value for
// boosting chains, or one probability per class of the *model's* class list
// for a tree or forest (a member whose bag missed a class is aligned first).
type arena struct {
	nodes  []arenaNode
	roots  []uint32
	thr    [][]float64 // thr[f]: feature f's distinct split thresholds, ascending
	leaf   []float64
	width  int
	chains []chain
}

// chain is a run of trees whose leaf payloads, times lr, add up from bias: a
// boosted model's one-vs-rest arm, or all of a forest (bias 0, lr 1).
type chain struct {
	bias, lr float64
	lo, hi   int // the trees roots[lo:hi]
}

// cmpBits orders floats as numbers and, within equal numbers, −0 before +0:
// a threshold keeps its sign bit through Save.
func cmpBits(a, b float64) int { return cmp.Compare(orderableBits(a), orderableBits(b)) }

// compileArena lays the members out in one exactly sized arena of width-wide
// leaves, summed by chains (nil: one chain over all of them). It fails on a
// model the node layout cannot hold.
func compileArena(members []grownTree, width int, chains []chain) (*arena, error) {
	type split struct {
		feature   int32
		threshold float64
	}
	nodes := 0
	for _, m := range members {
		nodes += len(m.nodes)
	}
	splits := make([]split, 0, nodes/2)
	for _, m := range members {
		for _, n := range m.nodes {
			switch {
			case n.feature < 0:
			case n.feature >= arenaLeaf:
				return nil, fmt.Errorf("mltree: split on feature %d: a model holds feature indices below %d", n.feature, arenaLeaf)
			case n.threshold != n.threshold:
				return nil, fmt.Errorf("mltree: feature %d has a NaN split threshold", n.feature)
			default:
				splits = append(splits, split{n.feature, n.threshold})
			}
		}
	}
	// Sorted by feature, then threshold, and deduplicated, the splits are the
	// threshold tables back to back.
	slices.SortFunc(splits, func(x, y split) int {
		return cmp.Or(cmp.Compare(x.feature, y.feature), cmpBits(x.threshold, y.threshold))
	})
	splits = slices.CompactFunc(splits, func(x, y split) bool { return x.feature == y.feature && cmpBits(x.threshold, y.threshold) == 0 })
	if chains == nil {
		chains = []chain{{lr: 1, hi: len(members)}}
	}
	a := &arena{
		nodes:  make([]arenaNode, 0, nodes),
		roots:  make([]uint32, len(members)),
		width:  width,
		chains: chains,
	}
	tables := make([]float64, len(splits))
	for i, s := range splits {
		tables[i] = s.threshold
	}
	if len(splits) > 0 {
		a.thr = make([][]float64, splits[len(splits)-1].feature+1)
	}
	for lo, hi := 0, 0; lo < len(splits); lo = hi {
		f := splits[lo].feature
		for hi < len(splits) && splits[hi].feature == f {
			hi++
		}
		if hi-lo > arenaLeaf {
			return nil, fmt.Errorf("mltree: feature %d has %d distinct split thresholds: a model holds at most %d per feature", f, hi-lo, arenaLeaf)
		}
		a.thr[f] = tables[lo:hi:hi]
	}
	set := a.internLeaves(members)
	for t, m := range members {
		a.roots[t] = uint32(len(a.nodes))
		a.nodes = append(a.nodes, 0)
		a.place(m, 0, a.roots[t], &set)
	}
	return a, nil
}

// internLeaves fills leaf with each distinct leaf row of the members once —
// distinct in its bits, so −0 and +0 stay apart — and returns the set that
// finds a row's copy there. The set holds references to the members' own
// rows until every row is interned, so that leaf is allocated once, at its
// final size.
func (a *arena) internLeaves(members []grownTree) rowSet {
	set := rowSet{width: a.width, members: members, base: make([]uint32, len(members)+1)}
	for t, m := range members {
		set.base[t+1] = set.base[t] + uint32(len(m.leaf))
	}
	rows, size := int(set.base[len(members)])/max(a.width, 1), 16
	for size < 2*min(rows, 512) {
		size *= 2 // room for 512 rows: a forest's distinct rows are few, its leaves many
	}
	set.slots = make([]uint32, size)
	distinct := 0
	for t, m := range members {
		for _, n := range m.nodes {
			if n.feature >= 0 {
				continue
			}
			if i := set.find(m.leaf[n.at:][:a.width]); set.slots[i] == 0 {
				set.slots[i] = set.base[t] + uint32(n.at) + 1
				if distinct++; 2*distinct > len(set.slots) {
					set.grow()
				}
			}
		}
	}
	a.leaf = make([]float64, 0, distinct*a.width)
	for i, ref := range set.slots {
		if ref != 0 {
			set.slots[i] = uint32(len(a.leaf)) + 1
			a.leaf = append(a.leaf, set.at(ref-1)...)
		}
	}
	set.leaf = a.leaf
	return set
}

// rowSet is an open-addressed set of width-wide rows compared by their bits.
// A slot holds 1 + a row's ref, or 0 when empty; the table is at most half
// full. A ref is the row's offset in leaf once that is set, and before then
// its offset in the members' leaves laid back to back, members[t]'s from
// base[t].
type rowSet struct {
	slots   []uint32 // a power of two
	width   int
	members []grownTree
	base    []uint32
	leaf    []float64
}

// at returns the row ref refers to.
func (s *rowSet) at(ref uint32) []float64 {
	if s.leaf != nil {
		return s.leaf[ref:][:s.width]
	}
	t := sort.Search(len(s.members), func(t int) bool { return s.base[t+1] > ref })
	return s.members[t].leaf[ref-s.base[t]:][:s.width]
}

// find returns the slot holding row, or the empty slot where it belongs.
func (s *rowSet) find(row []float64) int {
	mask := len(s.slots) - 1
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ math.Float64bits(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	i := int(h >> (64 - bits.Len(uint(mask))))
	for ; s.slots[i] != 0 && !sameBits(s.at(s.slots[i]-1), row); i = (i + 1) & mask {
	}
	return i
}

// grow doubles the table.
func (s *rowSet) grow() {
	old := s.slots
	s.slots = make([]uint32, 2*len(old))
	for _, ref := range old {
		if ref != 0 {
			s.slots[s.find(s.at(ref-1))] = ref
		}
	}
}

// sameBits reports whether the rows x and y hold the same float64 bits.
func sameBits(x, y []float64) bool {
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// place writes m's subtree at src into the reserved node dst, appending its
// descendants pair by pair; a leaf points at its row's copy in set.
func (a *arena) place(m grownTree, src int32, dst uint32, set *rowSet) {
	n := m.nodes[src]
	if n.feature < 0 {
		a.nodes[dst] = newArenaNode(set.slots[set.find(m.leaf[n.at:][:a.width])]-1, 0, arenaLeaf)
		return
	}
	t := a.thr[n.feature]
	rank := countBelow(t, n.threshold)
	if cmpBits(t[rank], n.threshold) != 0 {
		rank++ // +0: its table holds −0 too, just before it
	}
	c := uint32(len(a.nodes))
	a.nodes = append(a.nodes, 0, 0)
	a.nodes[dst] = newArenaNode(c, uint16(rank), uint16(n.feature))
	a.place(m, src+1, c, set)
	a.place(m, n.at, c+1, set)
}

// flatten appends the pointer tree n to gt in pre-order, validating it: the
// one check every decoded tree of every kind passes. A leaf's payload is its
// Value when cols is nil, otherwise a width-wide row with Probs[j] at column
// cols[j] and zero elsewhere.
func (gt *grownTree) flatten(n *treeNode, cols []int, width int) error {
	switch {
	case n == nil:
		return fmt.Errorf("a node is missing")
	case n.isLeaf() && len(n.Probs) != len(cols):
		return fmt.Errorf("a leaf carries %d probabilities, want %d", len(n.Probs), len(cols))
	case !n.isLeaf() && (n.Left == nil || n.Right == nil):
		return fmt.Errorf("a split has one child")
	case !n.isLeaf() && (n.Feature < 0 || n.Feature >= arenaLeaf):
		return fmt.Errorf("split on feature %d: a model holds feature indices from 0 below %d", n.Feature, arenaLeaf)
	}
	self := len(gt.nodes)
	gt.nodes = append(gt.nodes, grownNode{feature: -1, at: int32(len(gt.leaf))})
	switch {
	case !n.isLeaf():
		if err := gt.flatten(n.Left, cols, width); err != nil {
			return err
		}
		gt.nodes[self] = grownNode{feature: int32(n.Feature), threshold: n.Threshold, at: int32(len(gt.nodes))}
		return gt.flatten(n.Right, cols, width)
	case cols == nil:
		gt.leaf = append(gt.leaf, n.Value)
	default:
		gt.leaf = append(gt.leaf, make([]float64, width)...)
		row := gt.leaf[len(gt.leaf)-width:]
		for j, p := range n.Probs {
			row[cols[j]] = p
		}
	}
	return nil
}

// pointerTree rebuilds the subtree at node i as Save writes it: flatten's
// inverse, thresholds read back from the tables.
func (a *arena) pointerTree(i uint32, cols []int) *treeNode {
	n := a.nodes[i]
	if !n.isLeaf() {
		return &treeNode{
			Feature:   int(n.feature()),
			Threshold: a.thr[n.feature()][n.rank()],
			Left:      a.pointerTree(n.children(), cols),
			Right:     a.pointerTree(n.children()+1, cols),
		}
	}
	if cols == nil {
		return &treeNode{Value: a.leaf[n.children()]}
	}
	probs := make([]float64, len(cols))
	for j, c := range cols {
		probs[j] = a.leaf[int(n.children())+c]
	}
	return &treeNode{Probs: probs}
}

// numTrees is nil-safe: an unfitted model has no arena.
func (a *arena) numTrees() int {
	if a == nil {
		return 0
	}
	return len(a.roots)
}

// tile returns the rank tile for one pass over the arena — buf, or a heap
// tile for a model too wide for it. Ranks are feature-major, tileRows to a
// feature.
func (a *arena) tile(buf []uint16) []uint16 {
	if need := len(a.thr) * tileRows; need > len(buf) {
		return make([]uint16, need)
	}
	return buf
}

// countBelow returns how many entries of the sorted table t are less than
// v, which must not be NaN.
func countBelow(t []float64, v float64) int {
	lo, hi := 0, len(t)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// rank fills dst[f*tileRows+i] with the rank of row i's value in feature f's
// table, for the at most tileRows rows of X. Features no tree splits on are
// left alone: no node reads them. A value equal to the row before's takes its
// rank: the blocks of one prediction window share most columns.
func (a *arena) rank(dst []uint16, X [][]float64) {
	for f, t := range a.thr {
		if len(t) == 0 {
			continue
		}
		out := dst[f*tileRows : (f+1)*tileRows]
		for i, x := range X {
			switch v := x[f]; {
			case i > 0 && v == X[i-1][f]:
				out[i] = out[i-1]
			case v != v:
				out[i] = uint16(len(t))
			default:
				out[i] = uint16(countBelow(t, v))
			}
		}
	}
}

// step returns the child of split n that row i of the rank tile belongs under:
// n's children, plus one when the row's rank exceeds n's — the sign bit of
// the difference, so that no branch is taken.
func (n arenaNode) step(ranks []uint16, i int) uint32 {
	return n.children() + uint32(int32(n.rank())-int32(ranks[int(n.feature())*tileRows+i]))>>31
}

// leafOf walks row i of the rank tile from node at to its leaf's offset.
func (a *arena) leafOf(at uint32, ranks []uint16, i int) uint32 {
	n := a.nodes[at]
	for !n.isLeaf() {
		n = a.nodes[n.step(ranks, i)]
	}
	return n.children()
}

// descend walks the first n rows of a rank tile down the tree at root and
// writes each row's leaf offset to at. Eight rows go down together: a walk is
// a chain of dependent loads, and independent chains keep the memory pipeline
// busy where one would wait on it (per row of a 16-row window, on the serving
// forest: one chain 4.0 µs, four 2.45, eight 2.25).
func (a *arena) descend(root uint32, ranks []uint16, n int, at *[tileRows]uint32) {
	nodes := a.nodes
	i := 0
	for ; i+8 <= n; i += 8 {
		n0 := nodes[root]
		n1, n2, n3, n4, n5, n6, n7 := n0, n0, n0, n0, n0, n0, n0
		for !(n0 & n1 & n2 & n3 & n4 & n5 & n6 & n7).isLeaf() { // the leaf mark is all ones
			if !n0.isLeaf() {
				n0 = nodes[n0.step(ranks, i)]
			}
			if !n1.isLeaf() {
				n1 = nodes[n1.step(ranks, i+1)]
			}
			if !n2.isLeaf() {
				n2 = nodes[n2.step(ranks, i+2)]
			}
			if !n3.isLeaf() {
				n3 = nodes[n3.step(ranks, i+3)]
			}
			if !n4.isLeaf() {
				n4 = nodes[n4.step(ranks, i+4)]
			}
			if !n5.isLeaf() {
				n5 = nodes[n5.step(ranks, i+5)]
			}
			if !n6.isLeaf() {
				n6 = nodes[n6.step(ranks, i+6)]
			}
			if !n7.isLeaf() {
				n7 = nodes[n7.step(ranks, i+7)]
			}
		}
		at[i], at[i+1], at[i+2], at[i+3] = n0.children(), n1.children(), n2.children(), n3.children()
		at[i+4], at[i+5], at[i+6], at[i+7] = n4.children(), n5.children(), n6.children(), n7.children()
	}
	for ; i < n; i++ {
		at[i] = a.leafOf(root, ranks, i)
	}
}

// sums writes, for each row i of X and chain c, the chain's sum to
// dst[i*stride+c+w], w < width: bias plus lr × leaf payload in tree order. A
// tile of rows is ranked once and walked tree-major, while every row still
// accumulates in tree order: the floating-point sequence of a row-at-a-time
// walk of the pointer trees (for a forest, 0 + 1 × p is exactly p).
func (a *arena) sums(dst []float64, stride int, X [][]float64) {
	var buf [rankScratch]uint16
	var at [tileRows]uint32
	ranks := a.tile(buf[:])
	for lo := 0; lo < len(X); lo += tileRows {
		rows := X[lo:min(lo+tileRows, len(X))]
		a.rank(ranks, rows)
		for c, ch := range a.chains {
			out := dst[lo*stride+c:]
			for i := range rows {
				for w := 0; w < a.width; w++ {
					out[i*stride+w] = ch.bias
				}
			}
			for _, r := range a.roots[ch.lo:ch.hi] {
				a.descend(r, ranks, len(rows), &at)
				for i := range rows {
					for w, p := range a.leaf[at[i] : int(at[i])+a.width] {
						out[i*stride+w] += ch.lr * p
					}
				}
			}
		}
	}
}

// predictBlock writes the mean leaf distribution over the arena's trees for
// every row of X into dst (row-major, width values per row): the sum in tree
// order, scaled by 1/trees last (for a Tree, ×1 is exact); all zeros from a
// model without trees. It makes *arena the blockPredictor of Tree and Forest.
func (a *arena) predictBlock(dst []float64, X [][]float64) {
	if a.numTrees() == 0 {
		clear(dst)
		return
	}
	a.sums(dst, a.width, X)
	inv := 1 / float64(len(a.roots))
	for i := range dst {
		dst[i] *= inv
	}
}

// arenaOf returns the arena of one of this package's models (nil while it is
// unfitted).
func arenaOf(model Classifier) (a *arena, ok bool) {
	switch m := model.(type) {
	case *Tree:
		return m.arena, true
	case *Forest:
		return m.arena, true
	case *GBDT:
		return m.arena, true
	case *HistGBDT:
		return m.arena, true
	}
	return nil, false
}

// Size describes a fitted model's in-memory form.
type Size struct {
	// Nodes counts tree nodes, leaves included.
	Nodes int
	// Bytes is what the nodes, threshold tables and leaf payloads occupy.
	Bytes int
	// Features is one more than the largest feature index any tree splits
	// on: the shortest row the model can predict.
	Features int
}

// SizeOf measures a fitted model of this package; any other is all zero.
func SizeOf(model Classifier) Size {
	a, _ := arenaOf(model)
	if a == nil {
		return Size{}
	}
	size := Size{Nodes: len(a.nodes), Features: len(a.thr)}
	size.Bytes = 8*len(a.nodes) + 4*len(a.roots) + 8*len(a.leaf) + 24*len(a.thr)
	for _, t := range a.thr {
		size.Bytes += 8 * len(t)
	}
	return size
}
