package mltree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// codedMatrix is a feature matrix as every learner's training reads it
// (DESIGN §7): per feature, every row's value code — the rank of its value
// among the feature's distinct values — and those values ascending. Codes are
// order-preserving, so a grower that compares codes and takes its thresholds
// from vals grows what one comparing the floats would. Values equal under ==
// share a code (so −0 and +0 do, as they share a side of every threshold).
type codedMatrix struct {
	of    matrixID     // the Features it codes; zero for a Coder's dataset
	codes []codeColumn // codes[f]: the code of each row's value of feature f
	vals  [][]float64  // vals[f][code]: that value

	mu   sync.Mutex // guards idle
	idle []*grower  // growers that finished fits over these codes left
}

// A codeColumn holds one feature's codes, in the one slice of the three that is
// not nil, at the narrowest width that numbers its distinct values: one byte up
// to 256 of them, two up to 65 536, four beyond. Few features hold more than a
// few hundred values; readers choose the width once per column, not per row.
type codeColumn struct {
	u8  []uint8
	u16 []uint16
	u32 []uint32
}

type code interface{ uint8 | uint16 | uint32 } // a column's element type

func (col *codeColumn) len() int { return len(col.u8) + len(col.u16) + len(col.u32) }

// at returns row r's code.
func (col *codeColumn) at(r int) int {
	switch {
	case col.u32 != nil:
		return int(col.u32[r])
	case col.u16 != nil:
		return int(col.u16[r])
	default:
		return int(col.u8[r])
	}
}

// add appends a code, widening the column at the first code past its width
// (codes number values as they first appear, so they pass it one at a time).
func (col *codeColumn) add(c int32) {
	switch {
	case col.u32 != nil:
		col.u32 = append(col.u32, uint32(c))
	case c > math.MaxUint16:
		col.u32, col.u16 = append(widen[uint32](col.u16), uint32(c)), nil
	case col.u16 != nil:
		col.u16 = append(col.u16, uint16(c))
	case c > math.MaxUint8:
		col.u16, col.u8 = append(widen[uint16](col.u8), uint16(c)), nil
	default:
		col.u8 = append(col.u8, uint8(c))
	}
}

// widen copies codes into a wider slice of the same capacity.
func widen[W, T code](codes []T) []W {
	out := make([]W, len(codes), cap(codes))
	for i, c := range codes {
		out[i] = W(c)
	}
	return out
}

// remap replaces each code c with to[c], in place at the column's width.
func (col *codeColumn) remap(to []int32) {
	switch {
	case col.u32 != nil:
		remapCodes(col.u32, to)
	case col.u16 != nil:
		remapCodes(col.u16, to)
	default:
		remapCodes(col.u8, to)
	}
}

func remapCodes[T code](codes []T, to []int32) {
	for i, c := range codes {
		codes[i] = T(to[c])
	}
}

// codingPasses counts the matrices coded, for the tests that pin who codes.
var codingPasses atomic.Int64

// CodingPasses returns how many times this process has coded a feature
// matrix: once per dataset that a learner was fitted on or a Coder built, not
// once per fit, and never for a view (Subset, the stratified split, a k-fold
// cut) of a dataset already coded.
func CodingPasses() int64 { return codingPasses.Load() }

// codes returns d's current coded matrix, or nil without one unless build is
// set: then it builds one (on first use, and after Features is replaced).
func (d *Dataset) codes(build bool) *codedMatrix {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.coded == nil || d.coded.of != idOf(d.Features) {
		if !build {
			return nil
		}
		d.coded = newCodedMatrix(d.Features)
	}
	return d.coded
}

// newCodedMatrix codes the rows of X, which Validate has passed, with a Coder
// sized for its pairs: each column's distinct values, counted on a sorted copy.
func newCodedMatrix(X [][]float64) *codedMatrix {
	pairs, col := 0, make([]uint64, len(X))
	for f := range X[0] {
		for i, row := range X {
			col[i] = math.Float64bits(row[f])
		}
		slices.Sort(col)
		pairs += len(slices.Compact(col))
	}
	c := newCoder(len(X[0]), len(X), pairs)
	for _, row := range X {
		_ = c.Add(row, 0) // X passed Validate, and the Coder holds len(X) rows
	}
	c.rank()
	c.cm.of = idOf(X)
	return c.cm
}

// A Coder builds a dataset one sample at a time in the coded form, keeping no
// float rows: an open-addressed set finds each (feature, value bits) pair, a
// new pair is numbered by its feature's values so far, and Dataset remaps the
// numbers to ranks. (Its pairs are a feature and a float, not a row of bits as
// in a rowSet, so that Dataset can sort the values into vals in place.)
type Coder struct {
	cm     *codedMatrix // codes hold each feature's numbers until Dataset
	labels []int
	slots  []int32  // 1 + a pair's index, 0 when empty; a power of two, at most half full
	key    []uint32 // the pairs, by index: feature<<shift | number
	vals   []float64
	count  []int32 // the values numbered, by feature
	shift  int     // bits of a number; width<<shift fits in 32 bits
}

// NewCoder returns a Coder for up to rows samples of width features.
func NewCoder(width, rows int) *Coder { return newCoder(width, rows, rows+rows/2+width) }

// newCoder returns a Coder for up to rows samples of width features whose set
// holds n pairs before it grows.
func newCoder(width, rows, n int) *Coder {
	c := &Coder{cm: &codedMatrix{codes: make([]codeColumn, width), vals: make([][]float64, width)}, labels: make([]int, 0, rows),
		slots: make([]int32, max(16, 1<<bits.Len(uint(2*n-1)))), key: make([]uint32, 0, n), vals: make([]float64, 0, n),
		count: make([]int32, width), shift: bits.Len(uint(rows))}
	backing := make([]uint8, width*rows) // every column starts a byte wide
	for f := range c.cm.codes {
		c.cm.codes[f].u8 = backing[f*rows : f*rows : (f+1)*rows]
	}
	return c
}

// Add codes one sample, refusing a row Validate would (with its error) and a
// sample past the rows the Coder was made for.
func (c *Coder) Add(row []float64, label int) error {
	if len(c.labels) == cap(c.labels) {
		return fmt.Errorf("mltree: coder holds %d samples", len(c.labels))
	}
	if err := checkRow(len(c.labels), row, len(c.cm.codes)); err != nil {
		return err
	}
	for f, v := range row {
		i := c.find(int32(f), v)
		id := c.slots[i] - 1
		if id < 0 {
			id, c.key, c.vals = int32(len(c.vals)), append(c.key, uint32(f)<<c.shift|uint32(c.count[f])), append(c.vals, v)
			c.count[f]++
			c.put(i)
		}
		c.cm.codes[f].add(int32(c.key[id] & (1<<c.shift - 1)))
	}
	c.labels = append(c.labels, label)
	return nil
}

// feat returns pair id's feature.
func (c *Coder) feat(id int32) int32 { return int32(c.key[id] >> c.shift) }

// find returns the slot holding (f, v), or the empty slot where it belongs.
func (c *Coder) find(f int32, v float64) int {
	mask, u := len(c.slots)-1, math.Float64bits(v)
	i := int((u^uint64(f)*0xBF58476D1CE4E5B9)*0x9E3779B97F4A7C15>>(64-bits.Len(uint(mask)))) & mask
	for ; c.slots[i] != 0 && (math.Float64bits(c.vals[c.slots[i]-1]) != u || c.feat(c.slots[i]-1) != f); i = (i + 1) & mask {
	}
	return i
}

// put gives the newest pair the empty slot i, doubling the set once it is
// half full.
func (c *Coder) put(i int) {
	if c.slots[i] = int32(len(c.vals)); 2*len(c.vals) > len(c.slots) {
		old := c.slots
		c.slots = make([]int32, 2*len(old))
		for _, ref := range old {
			if ref != 0 {
				c.slots[c.find(c.feat(ref-1), c.vals[ref-1])] = ref
			}
		}
	}
}

// Dataset returns the samples added as a dataset with no Features: its fits
// read the codes, and its views are views of it. It ends the Coder.
func (c *Coder) Dataset(names []string) *Dataset {
	c.rank()
	return &Dataset{Labels: c.labels, Names: names, coded: c.cm}
}

// rank turns the codes from numbers into ranks. The pairs are put in order —
// by feature, then by orderable bits — in place, and each feature's runs of
// values equal under == are ranked and compacted to their first value (−0
// when the feature holds both zeros), which is its vals.
func (c *Coder) rank() {
	codingPasses.Add(1)
	n := len(c.vals)
	order := c.slots[:n] // the slots, at least twice the pairs, hold their order
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Or(cmp.Compare(c.feat(a), c.feat(b)), cmpBits(c.vals[a], c.vals[b])) })
	for k := range order { // gather the pairs into order, cycle by cycle
		v, key, j := c.vals[k], c.key[k], int32(k)
		for order[j] != int32(k) {
			src := order[j]
			c.vals[j], c.key[j], order[j] = c.vals[src], c.key[src], j
			j = src
		}
		c.vals[j], c.key[j], order[j] = v, key, j
	}
	// order[lo:hi], a feature's pairs, becomes its map from number to rank.
	for lo, hi, w := 0, 0, 0; lo < n; lo = hi {
		f, start := c.feat(int32(lo)), w
		for ; hi < n && c.feat(int32(hi)) == f; hi++ {
			if w == start || c.vals[hi] != c.vals[w-1] {
				c.vals[w], w = c.vals[hi], w+1
			}
			order[lo+int(c.key[hi]&(1<<c.shift-1))] = int32(w - start - 1)
		}
		c.cm.vals[f] = c.vals[start:w:w]
		c.cm.codes[f].remap(order[lo:hi])
	}
}

// orderableBits maps a float64 to a uint64 whose unsigned order matches the
// float's numeric order (sign bit flipped for positives, all bits flipped
// for negatives), −0 just before +0.
func orderableBits(v float64) uint64 {
	u := math.Float64bits(v)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}
