package stream

import (
	"math/bits"
	"unsafe"

	"cordial/internal/ecc"
	"cordial/internal/features"
	"cordial/internal/mcelog"
)

// A shard's bankStore is where its banks live and the shard's only index of
// them. Nearly every bank a fleet engine tracks logs correctable errors for
// life and needs nothing but remembering, so a bank is held in the cheapest
// form that remembers it — a fixed-size slot and a chain of its observations
// in the store's own memory — until its first UER (or the per-bank cap) asks
// for a strategy session; only then does it cost Go objects of its own.
//
//   - index: an open-addressed table, bank key → slot reference, linear
//     probing, at most half full, deletion by backward shift. It is the one
//     part that grows by doubling (4 B per entry).
//   - slots: one pointer-free 24-byte slot per bank. A stored bank's slot holds
//     its replay watermark, pinned model version (an index into the shard's
//     version table), observation count and the newest node of its chain; a
//     promoted bank's slot holds the reference of its bankSession in heap.
//     A stored bank's first-event time is its oldest node's.
//   - nodes: the observations, 16 bytes each, linked newest → oldest, recycled
//     through a free list when a bank promotes or is dropped.
//   - heap: the promoted banks' bankSessions, by value, recycled through a
//     free list when a bank is dropped.
//
// Slots, nodes and sessions sit in fixed-size chunks that are allocated one at
// a time and never moved, so a stored bank and a promotion cost no allocation
// of their own and the store never holds a doubled array's slack. Like
// everything a shard owns, a store is written only by the holder of the
// shard's mu.
type bankStore struct {
	index []uint32 // slot references, 0 = empty; len is zero or a power of two
	shift uint     // 64 - log2(len(index)): a key's home is the top bits of its hash
	banks int      // live slots

	slots    chunked[slot]
	freeSlot uint32 // head of the free slots, linked through slot.ref
	nodes    chunked[obsNode]
	freeNode uint32 // head of the free nodes, linked through their next references
	heap     chunked[bankSession]
	freeHeap []uint32 // heap entries vacated by dropped banks, zeroed
}

// init readies an empty store.
func (st *bankStore) init() {
	st.slots.shift, st.nodes.shift, st.heap.shift = chunkShift, chunkShift, heapChunkShift
}

// slot is one bank in the store: 24 bytes.
type slot struct {
	key     uint64
	lastLSN uint64 // stored banks: newest journal record applied (bankSession.lastLSN once promoted)
	ref     uint32 // stored: newest node of the chain; heap: entry in bankStore.heap; free: next free slot
	meta    uint32 // ver<<verShift | count<<countShift | form
}

const (
	slotFree   = iota // zero, so fresh chunk memory is free slots
	slotStored        // a CE-only bank: the slot and its chain are all there is
	slotHeap          // a bank with a *bankSession
)

// A slot's meta word: the form in the low 2 bits, a stored bank's observation
// count in the next 6 (quietCap < 64), the shadowed mark in the next, the
// pinned version's table index in the top 23 (versionIndex refuses a table
// longer than maxVersions).
const (
	countShift  = 2
	shadowedBit = 1 << 8
	verShift    = 9
	formMask    = 1<<countShift - 1
	countMask   = shadowedBit - 1 - formMask
	maxVersions = 1 << (32 - verShift)
)

func (sl *slot) form() uint8     { return uint8(sl.meta & formMask) }
func (sl *slot) count() int      { return int(sl.meta & countMask >> countShift) }
func (sl *slot) ver() uint32     { return sl.meta >> verShift }
func (sl *slot) setForm(f uint8) { sl.meta = sl.meta&^formMask | uint32(f) }

// shadowed reports a stored bank born while the shard's current shadow
// evaluation ran (shardState.shadowGen): it gets a candidate twin when it
// promotes under that evaluation.
func (sl *slot) shadowed() bool { return sl.meta&shadowedBit != 0 }

// obsNode is one stored observation — the features.Obs a node holds — and the
// reference of the one before it, in 16 bytes: the time, and one word of
// next<<nodeNextShift | row<<nodeRowShift | class<<nodeClassShift | bits.
type obsNode struct {
	t int64
	w uint64
}

// The node word's fields. A row is held in 18 bits — Config.Validate refuses
// a profile whose row field is wider (hbm3's 17 is the widest registered) —
// and a reference in 28, so a shard holds at most maxNodeRef nodes and
// promotes a bank whose next observation finds none.
const (
	nodeClassShift = 16
	nodeRowShift   = nodeClassShift + 2
	nodeRowBits    = 18
	nodeNextShift  = nodeRowShift + nodeRowBits
	maxNodeRow     = 1<<nodeRowBits - 1
	maxNodeRef     = 1<<(64-nodeNextShift) - 1
)

// nodeOf packs an observation that nodeHolds and the reference before it.
func nodeOf(o features.Obs, next uint32) obsNode {
	return obsNode{t: o.UnixNano(), w: uint64(next)<<nodeNextShift | uint64(o.Row())<<nodeRowShift |
		uint64(o.Class())<<nodeClassShift | uint64(o.Bits())}
}

// nodeHolds reports whether a node can hold the observation: whether its row
// fits (the class, folded by MakeObs, and the bits always do).
func nodeHolds(o features.Obs) bool { return uint32(o.Row()) <= maxNodeRow }

func (n *obsNode) obs() features.Obs {
	return features.MakeObs(n.t, int32(n.w>>nodeRowShift&maxNodeRow), ecc.Class(n.w>>nodeClassShift&3), mcelog.ErrBits(n.w))
}

func (n *obsNode) next() uint32 { return uint32(n.w >> nodeNextShift) }

func (n *obsNode) setNext(ref uint32) { n.w = n.w&(1<<nodeNextShift-1) | uint64(ref)<<nodeNextShift }

// nodeBytes is what one stored observation occupies: a stored bank's
// StateBytes is nodeBytes per observation.
const nodeBytes = int(unsafe.Sizeof(obsNode{}))

// chunkLen is the number of slots or nodes per chunk: 24 KB of slots, 16 KB of
// nodes — small enough that the last, part-filled chunk of each kind is noise
// beside the fleet, large enough that chunk allocations are one per thousand
// banks or observations. A heap chunk holds 64 sessions, 7 KB: few banks of a
// fleet promote, so a smaller chunk keeps the last one's slack out of the
// fleet's live heap, at one allocation per 64 promotions.
const (
	chunkShift     = 10
	chunkLen       = 1 << chunkShift
	heapChunkShift = 6
)

// chunked is an append-only array in chunks of 1<<shift elements, addressed by
// 1-based reference so that 0 can mean "none". Elements never move.
type chunked[T any] struct {
	chunks [][]T
	n      uint32 // elements handed out; also the highest valid reference
	shift  uint   // set before the first push
}

func (c *chunked[T]) at(ref uint32) *T {
	i := ref - 1
	return &c.chunks[i>>c.shift][i&(1<<c.shift-1)]
}

// push adds one zero element and returns its reference.
func (c *chunked[T]) push() uint32 {
	c.reserve(1)
	c.n++
	return c.n
}

// reserve allocates the chunks n more elements will fill.
func (c *chunked[T]) reserve(n int) {
	for len(c.chunks)<<c.shift < int(c.n)+n {
		c.chunks = append(c.chunks, make([]T, 1<<c.shift))
	}
}

// home is the index position a key's probe sequence starts at. It takes the
// hash's top bits: shard routing reduces the same hash modulo the shard count,
// which for a power-of-two count fixes the low ones.
func (st *bankStore) home(key uint64) uint32 { return uint32(mix64(key) >> st.shift) }

// find returns the slot of the bank with the given key, nil if there is none.
func (st *bankStore) find(key uint64) *slot {
	if len(st.index) == 0 {
		return nil
	}
	mask := uint32(len(st.index) - 1)
	for i := st.home(key); ; i = (i + 1) & mask {
		ref := st.index[i]
		if ref == 0 {
			return nil
		}
		if sl := st.slots.at(ref); sl.key == key {
			return sl
		}
	}
}

// minIndex is the index's first size.
const minIndex = 64

// insert adds a slot for key, which the caller has found absent, and returns
// it with only the key set.
func (st *bankStore) insert(key uint64) *slot {
	if 2*(st.banks+1) > len(st.index) {
		st.rehash(max(minIndex, 2*len(st.index)))
	}
	ref := st.freeSlot
	if ref != 0 {
		st.freeSlot = st.slots.at(ref).ref
	} else {
		ref = st.slots.push()
	}
	sl := st.slots.at(ref)
	*sl = slot{key: key}
	st.place(ref, key)
	st.banks++
	return sl
}

// place puts a slot reference at the first empty position of key's probe
// sequence.
func (st *bankStore) place(ref uint32, key uint64) {
	mask := uint32(len(st.index) - 1)
	i := st.home(key)
	for st.index[i] != 0 {
		i = (i + 1) & mask
	}
	st.index[i] = ref
}

// rehash rebuilds the index at the given power-of-two size from the slots.
func (st *bankStore) rehash(size int) {
	st.index = make([]uint32, size)
	st.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for ref := uint32(1); ref <= st.slots.n; ref++ {
		if sl := st.slots.at(ref); sl.form() != slotFree {
			st.place(ref, sl.key)
		}
	}
}

// reserve makes room for n more banks, so that a restore or an import builds
// the index once instead of doubling its way up.
func (st *bankStore) reserve(n int) {
	st.slots.reserve(n)
	size := max(minIndex, len(st.index))
	for 2*(st.banks+n) > size {
		size *= 2
	}
	if size > len(st.index) {
		st.rehash(size)
	}
}

// remove takes a bank out: its chain or heap entry is released, its slot goes
// on the free list, and the index entries probing past it shift back so that
// no tombstone is left.
func (st *bankStore) remove(sl *slot) {
	switch sl.form() {
	case slotStored:
		st.freeLog(sl)
	case slotHeap:
		*st.heap.at(sl.ref) = bankSession{}
		st.freeHeap = append(st.freeHeap, sl.ref)
	}
	mask := uint32(len(st.index) - 1)
	i := st.home(sl.key)
	for st.slots.at(st.index[i]) != sl {
		i = (i + 1) & mask
	}
	ref := st.index[i]
	for j := (i + 1) & mask; st.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may move back to the hole at i unless its home lies
		// cyclically in (i, j]: then the hole is before its probe sequence starts.
		if h := st.home(st.slots.at(st.index[j]).key); (j-h)&mask >= (j-i)&mask {
			st.index[i] = st.index[j]
			i = j
		}
	}
	st.index[i] = 0
	*sl = slot{ref: st.freeSlot}
	st.freeSlot = ref
	st.banks--
}

// canAppend reports whether appendObs would find a node.
func (st *bankStore) canAppend() bool { return st.freeNode != 0 || st.nodes.n < maxNodeRef }

// holds reports whether a whole log can go into the store's nodes: every
// observation's row fits a node (an image's rows are bounded only by 2³¹),
// and the references not yet handed out cover it (free nodes are not counted:
// a log the check turns away takes the heap form, which is exact).
func (st *bankStore) holds(log []features.Obs) bool {
	if int(maxNodeRef-st.nodes.n) < len(log) {
		return false
	}
	for _, o := range log {
		if !nodeHolds(o) {
			return false
		}
	}
	return true
}

// appendObs adds an observation that nodeHolds to a stored bank's chain. It
// appends nothing and reports false when the shard's node references are
// exhausted.
func (st *bankStore) appendObs(sl *slot, o features.Obs) bool {
	ref := st.freeNode
	switch {
	case ref != 0:
		st.freeNode = st.nodes.at(ref).next()
	case st.nodes.n < maxNodeRef:
		ref = st.nodes.push()
	default:
		return false
	}
	*st.nodes.at(ref) = nodeOf(o, sl.ref)
	sl.ref = ref
	sl.meta += 1 << countShift
	return true
}

// oldest returns the oldest node of a stored bank's chain, which holds one.
func (st *bankStore) oldest(sl *slot) *obsNode {
	nd := st.nodes.at(sl.ref)
	for nd.next() != 0 {
		nd = st.nodes.at(nd.next())
	}
	return nd
}

// log copies a stored bank's observations, oldest first, into buf (or a new
// slice when buf is too small).
func (st *bankStore) log(sl *slot, buf []features.Obs) []features.Obs {
	n := sl.count()
	if cap(buf) < n {
		buf = make([]features.Obs, n)
	}
	buf = buf[:n]
	for ref, i := sl.ref, n-1; ref != 0; i-- {
		nd := st.nodes.at(ref)
		buf[i], ref = nd.obs(), nd.next()
	}
	return buf
}

// freeLog returns a stored bank's nodes to the free list.
func (st *bankStore) freeLog(sl *slot) {
	if sl.ref == 0 {
		return
	}
	st.oldest(sl).setNext(st.freeNode)
	st.freeNode = sl.ref
	sl.ref = 0
	sl.meta &^= countMask
}

// setHeap turns a slot — new, or stored with its log already freed — into the
// heap form holding a copy of bs, and returns the copy.
func (st *bankStore) setHeap(sl *slot, bs *bankSession) *bankSession {
	var ref uint32
	if n := len(st.freeHeap); n > 0 {
		ref, st.freeHeap = st.freeHeap[n-1], st.freeHeap[:n-1]
	} else {
		ref = st.heap.push()
	}
	held := st.heap.at(ref)
	*held = *bs
	sl.ref = ref
	sl.setForm(slotHeap)
	return held
}

// session returns a heap-form bank's session.
func (st *bankStore) session(sl *slot) *bankSession { return st.heap.at(sl.ref) }

// each visits every bank, in slot order. fn may remove the bank it is given.
func (st *bankStore) each(fn func(sl *slot)) {
	for ref := uint32(1); ref <= st.slots.n; ref++ {
		if sl := st.slots.at(ref); sl.form() != slotFree {
			fn(sl)
		}
	}
}

// eachSession visits every heap-form bank's session: every entry but the
// vacated, zeroed ones.
func (st *bankStore) eachSession(fn func(bs *bankSession)) {
	for ref := uint32(1); ref <= st.heap.n; ref++ {
		if bs := st.heap.at(ref); bs.sess != nil {
			fn(bs)
		}
	}
}
