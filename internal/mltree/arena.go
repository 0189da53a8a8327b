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

// grownNode is a node of a tree being built, laid out as in the arena: root
// first, siblings adjacent. A split's children are nodes at and at+1 and thr
// is its threshold's index in the tree; a leaf (thr == grownLeaf) has its
// row's index there in at.
type grownNode struct{ at, thr uint32 }

const grownLeaf = math.MaxUint32

// grownTree is a tree as every learner and the model loader hand it to
// compileArena: a view of the words its builder's store keeps it in — its
// nodes, its splits' threshold bits sorted by feature and then threshold,
// their features four to a word, and its distinct leaf rows' bits.
type grownTree struct {
	rec           []uint64
	nodes, splits int
}

func (gt grownTree) node(i int) grownNode {
	return grownNode{at: uint32(gt.rec[i] >> 32), thr: uint32(gt.rec[i])}
}

func (gt grownTree) threshold(id int) float64 { return math.Float64frombits(gt.rec[gt.nodes+id]) }

func (gt grownTree) feature(id int) int {
	return int(uint16(gt.rec[gt.nodes+gt.splits+id/4] >> (16 * (id % 4))))
}

func (gt grownTree) leaves() []uint64 { return gt.rec[gt.nodes+gt.splits+(gt.splits+3)/4:] }

// builder is the scratch a tree is built in, reused from tree to tree: its
// nodes, its splits, and its distinct leaf rows with the set that finds them.
// It keeps every tree it built since its store was emptied in that store, in
// chunks of storeChunk words (or one tree's, if more) that are never copied:
// a forest's records cost a few allocations, and a fit that takes a finished
// fit's builder (growerFor) reuses its chunks.
type builder struct {
	nodes  []grownNode
	splits []split
	leaf   []uint64
	rows   rowSet
	row    []uint64   // the bits of the leaf row being built
	store  [][]uint64 // store[:used] hold trees
	used   int
	free   []uint64 // the end of store[used-1] that no tree holds
}

// storeChunk is the words of a chunk of a builder's store: 64 KiB, a handful
// of the block forest's trees, and of 2¹⁰–2¹⁵ words the fewest bytes a fit
// allocates (TestFitTransientBytes).
const storeChunk = 1 << 13

// split is a split's threshold and feature and the node it is.
type split struct {
	thr  float64
	f    uint16
	node uint32
}

func newBuilder(width int) *builder {
	b := &builder{row: make([]uint64, width)}
	b.rows = rowSet{slots: make([]uint32, 16), row: func(id uint32) []uint64 { return b.leaf[int(id)*width:][:width] }}
	return b
}

// more returns s with room for n more elements, at least doubling it (to 256
// at first) when it must move: a worker's scratch settles in a few steps.
func more[S ~[]E, E any](s S, n int) S { return slices.Grow(s, max(n, len(s), 256)) }

// reset starts a tree: a root, yet to be laid out.
func (b *builder) reset() {
	b.nodes, b.splits, b.leaf = append(b.nodes[:0], grownNode{}), b.splits[:0], b.leaf[:0]
	clear(b.rows.slots)
	b.rows.n = 0
}

// split makes node at a split on feature f at thr and returns its left
// child's index. A feature the arena cannot hold is kept as arenaLeaf, for
// compileArena to refuse.
func (b *builder) split(at, f int, thr float64) int {
	c := len(b.nodes)
	b.nodes = append(more(b.nodes, 2), grownNode{}, grownNode{})
	b.nodes[at].at = uint32(c)
	b.splits = append(more(b.splits, 1), split{thr, uint16(min(f, arenaLeaf)), uint32(at)})
	return c
}

// leafAt makes node at a leaf whose row is b.row.
func (b *builder) leafAt(at int) {
	id, i := uint32(len(b.leaf)/len(b.row)), b.rows.find(b.row)
	if b.rows.slots[i] == 0 {
		b.leaf = append(more(b.leaf, len(b.row)), b.row...)
		b.rows.put(i, id)
	} else {
		id = b.rows.slots[i] - 1
	}
	b.nodes[at] = grownNode{at: id, thr: grownLeaf}
}

// tree packs the tree built into the store and returns its view.
func (b *builder) tree() grownTree {
	n, s := len(b.nodes), len(b.splits)
	slices.SortFunc(b.splits, func(x, y split) int { return cmp.Or(cmp.Compare(x.f, y.f), cmpBits(x.thr, y.thr)) })
	gt := grownTree{rec: b.take(n + s + (s+3)/4 + len(b.leaf)), nodes: n, splits: s}
	for id, sp := range b.splits {
		b.nodes[sp.node].thr = uint32(id)
		gt.rec[n+id] = math.Float64bits(sp.thr)
		gt.rec[n+s+id/4] |= uint64(sp.f) << (16 * (id % 4))
	}
	for i, nd := range b.nodes {
		gt.rec[i] = uint64(nd.at)<<32 | uint64(nd.thr)
	}
	copy(gt.leaves(), b.leaf)
	return gt
}

// take returns w zeroed words of the store that no tree holds: the end of the
// chunk being filled, or else the next chunk, made if there is none as large.
func (b *builder) take(w int) []uint64 {
	if len(b.free) < w {
		if b.used == len(b.store) || len(b.store[b.used]) < w {
			b.store = append(b.store[:b.used], make([]uint64, max(storeChunk, w)))
		}
		b.free, b.used = b.store[b.used], b.used+1
	}
	rec := b.free[:w:w]
	b.free = b.free[w:]
	clear(rec)
	return rec
}

// compileArena lays the members out in one exactly sized arena of width-wide
// leaves, summed by chains (nil: one chain over all of them): their thresholds
// merged into per-feature tables, a split's remapped to its rank there and a
// leaf's row to its one copy in leaf. It fails on a model the node layout
// cannot hold.
func compileArena(members []grownTree, width int, chains []chain) (*arena, error) {
	nodes, features := 0, 0
	for _, m := range members {
		if nodes += m.nodes; m.splits > 0 {
			features = max(features, m.feature(m.splits-1)+1)
		}
	}
	count := make([]int, features+1) // splits by feature; the most, last
	for _, m := range members {
		for id := range m.splits {
			switch f := m.feature(id); {
			case f >= arenaLeaf:
				return nil, fmt.Errorf("mltree: split on feature %d: a model holds feature indices below %d", f, arenaLeaf)
			case m.threshold(id) != m.threshold(id):
				return nil, fmt.Errorf("mltree: feature %d has a NaN split threshold", f)
			}
			count[m.feature(id)]++
			count[features] = max(count[features], count[m.feature(id)])
		}
	}
	if chains == nil {
		chains = []chain{{lr: 1, hi: len(members)}}
	}
	a := &arena{nodes: make([]arenaNode, 0, nodes), roots: make([]uint32, len(members)), width: width, chains: chains}
	// A feature's table is the runs of its thresholds in the members, sorted
	// and deduplicated: counted in one pass, copied out in another.
	next, group := make([]int, len(members)), make([]float64, 0, count[features])
	gather := func(f int) []float64 {
		group = group[:0]
		for t, m := range members {
			for ; next[t] < m.splits && m.feature(next[t]) == f; next[t]++ {
				group = append(group, m.threshold(next[t]))
			}
		}
		slices.SortFunc(group, cmpBits)
		return slices.CompactFunc(group, func(x, y float64) bool { return cmpBits(x, y) == 0 })
	}
	distinct := 0
	for f := range features {
		t := gather(f)
		if len(t) > arenaLeaf {
			return nil, fmt.Errorf("mltree: feature %d has %d distinct split thresholds: a model holds at most %d per feature", f, len(t), arenaLeaf)
		}
		distinct += len(t)
	}
	if features > 0 {
		a.thr = make([][]float64, features)
	}
	clear(next)
	tables := make([]float64, 0, distinct)
	for f := range features {
		if t := gather(f); len(t) > 0 {
			tables = append(tables, t...)
			a.thr[f] = tables[len(tables)-len(t) : len(tables) : len(tables)]
		}
	}
	ord, rows := a.internLeaves(members), uint32(0) // rows: the members' rows before this one's
	for t, m := range members {
		root := uint32(len(a.nodes))
		a.roots[t] = root
		for i := range m.nodes {
			n := m.node(i)
			if n.thr == grownLeaf {
				a.nodes = append(a.nodes, newArenaNode(ord[rows+n.at]*uint32(width), 0, arenaLeaf))
				continue
			}
			f, v := m.feature(int(n.thr)), m.threshold(int(n.thr))
			rank := countBelow(a.thr[f], v)
			if cmpBits(a.thr[f][rank], v) != 0 {
				rank++ // +0: its table holds −0 too, just before it
			}
			a.nodes = append(a.nodes, newArenaNode(root+n.at, uint16(rank), uint16(f)))
		}
		rows += uint32(len(m.leaves()) / width)
	}
	return a, nil
}

// internLeaves fills leaf with each distinct leaf row of the members once —
// distinct in its bits, so −0 and +0 stay apart — in the order first met, and
// returns the index there of every member's every row, numbered back to back.
func (a *arena) internLeaves(members []grownTree) []uint32 {
	base := make([]uint32, len(members)+1) // base[t]: members[t]'s first row
	for t, m := range members {
		base[t+1] = base[t] + uint32(len(m.leaves())/a.width)
	}
	rowOf := func(g uint32) []uint64 {
		t := sort.Search(len(members), func(t int) bool { return base[t+1] > g })
		return members[t].leaves()[int(g-base[t])*a.width:][:a.width]
	}
	size := 16
	for size < 2*int(base[len(members)]) {
		size *= 2 // room for every row: a forest's trees share few of theirs
	}
	set, ord := rowSet{slots: make([]uint32, size), row: rowOf}, make([]uint32, base[len(members)])
	for g := range ord {
		if i := set.find(rowOf(uint32(g))); set.slots[i] != 0 {
			ord[g] = ord[set.slots[i]-1]
		} else {
			ord[g] = uint32(set.n)
			set.put(i, uint32(g))
		}
	}
	a.leaf = make([]float64, 0, set.n*a.width)
	for g, o := range ord {
		if int(o)*a.width == len(a.leaf) { // the row's first occurrence
			for _, u := range rowOf(uint32(g)) {
				a.leaf = append(a.leaf, math.Float64frombits(u))
			}
		}
	}
	return ord
}

// rowSet is an open-addressed set of rows of float bits, at most half full. A
// slot holds 1 + a row's ref, or 0 when empty; row resolves a ref.
type rowSet struct {
	slots []uint32 // a power of two
	n     int      // rows held
	row   func(ref uint32) []uint64
}

// find returns the slot holding row, or the empty slot where it belongs.
func (s *rowSet) find(row []uint64) int {
	mask := len(s.slots) - 1
	h := uint64(len(row))
	for _, u := range row {
		h = (h ^ u) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	i := int(h >> (64 - bits.Len(uint(mask))))
	for ; s.slots[i] != 0 && !slices.Equal(s.row(s.slots[i]-1), row); i = (i + 1) & mask {
	}
	return i
}

// put stores ref in the empty slot i, doubling the table once it is half full.
func (s *rowSet) put(i int, ref uint32) {
	s.slots[i] = ref + 1
	if s.n++; 2*s.n > len(s.slots) {
		old := s.slots
		s.slots = make([]uint32, 2*len(old))
		for _, r := range old {
			if r != 0 {
				s.slots[s.find(s.row(r-1))] = r
			}
		}
	}
}

// flatten builds the pointer tree n in b, validating it: the one check every
// decoded tree of every kind passes. A leaf's row is its Value when cols is
// nil, otherwise a width-wide row with Probs[j] at column cols[j], zero
// elsewhere.
func (b *builder) flatten(n *treeNode, cols []int) (grownTree, error) {
	b.reset()
	if err := b.place(n, 0, cols); err != nil {
		return grownTree{}, err
	}
	return b.tree(), nil
}

// place builds the subtree n at node at, its descendants pair by pair.
func (b *builder) place(n *treeNode, at int, cols []int) error {
	switch {
	case n == nil:
		return fmt.Errorf("a node is missing")
	case n.isLeaf() && len(n.Probs) != len(cols):
		return fmt.Errorf("a leaf carries %d probabilities, want %d", len(n.Probs), len(cols))
	case !n.isLeaf() && (n.Left == nil || n.Right == nil):
		return fmt.Errorf("a split has one child")
	case !n.isLeaf() && (n.Feature < 0 || n.Feature >= arenaLeaf):
		return fmt.Errorf("split on feature %d: a model holds feature indices from 0 below %d", n.Feature, arenaLeaf)
	case !n.isLeaf():
		c := b.split(at, n.Feature, n.Threshold)
		if err := b.place(n.Left, c, cols); err != nil {
			return err
		}
		return b.place(n.Right, c+1, cols)
	case cols == nil:
		b.row[0] = math.Float64bits(n.Value)
	default:
		clear(b.row)
		for j, p := range n.Probs {
			b.row[cols[j]] = math.Float64bits(p)
		}
	}
	b.leafAt(at)
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
