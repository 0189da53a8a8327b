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

// codedMatrix is a feature matrix as classification training reads it
// (DESIGN §7): per feature, every row's value code — the rank of its value
// among the feature's distinct values — and those values ascending. Codes are
// order-preserving, so a grower that compares codes and takes its thresholds
// from vals grows what one comparing the floats would. Values equal under ==
// share a code (so −0 and +0 do, as they share a side of every threshold).
type codedMatrix struct {
	of    matrixID    // the Features it codes; zero for a Coder's dataset
	codes [][]int32   // codes[f][i]: the code of row i's value of feature f
	vals  [][]float64 // vals[f][code]: that value

	mu   sync.Mutex // guards idle
	idle []*grower  // growers that finished fits over these codes left
}

// codingPasses counts the matrices coded, for the tests that pin who codes.
var codingPasses atomic.Int64

// CodingPasses returns how many times this process has coded a feature
// matrix: once per dataset that a Tree or Forest was fitted on or a Coder
// built, not once per fit, and never for a view (Subset, the stratified split,
// a k-fold cut) of a dataset already coded.
func CodingPasses() int64 { return codingPasses.Load() }

// codes returns d's coded matrix, building it on first use and again when
// Features has been replaced since.
func (d *Dataset) codes() *codedMatrix {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.coded == nil || d.coded.of != idOf(d.Features) {
		d.coded = newCodedMatrix(d.Features)
	}
	return d.coded
}

// codesIfBuilt returns d's coded matrix if it has a current one.
func (d *Dataset) codesIfBuilt() *codedMatrix {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.coded == nil || d.coded.of != idOf(d.Features) {
		return nil
	}
	return d.coded
}

// newCodedMatrix codes the rows of X, which Validate has passed, with a Coder.
func newCodedMatrix(X [][]float64) *codedMatrix {
	c := NewCoder(len(X[0]), len(X))
	for _, row := range X {
		_ = c.Add(row, 0) // X passed Validate, and the Coder holds len(X) rows
	}
	c.rank()
	c.cm.of = idOf(X)
	return c.cm
}

// A Coder builds a dataset one sample at a time in the coded form, keeping no
// float rows: an open-addressed set numbers each distinct (feature, value
// bits) pair as it arrives, and Dataset remaps the numbers to ranks. (Its
// pairs are a feature and a float, not a row of bits as in a rowSet, so that
// Dataset can sort the values into vals in place.)
type Coder struct {
	cm     *codedMatrix // codes hold pair indices until Dataset
	labels []int
	slots  []int32 // 1 + a pair's index, 0 when empty; a power of two, at most half full
	feat   []int32 // the pairs, by index
	vals   []float64
}

// NewCoder returns a Coder for up to rows samples of width features.
func NewCoder(width, rows int) *Coder {
	n := rows + rows/2 + width // pairs expected
	c := &Coder{cm: &codedMatrix{codes: make([][]int32, width), vals: make([][]float64, width)}, labels: make([]int, 0, rows),
		slots: make([]int32, max(16, 1<<bits.Len(uint(2*n-1)))), feat: make([]int32, 0, n), vals: make([]float64, 0, n)}
	backing := make([]int32, width*rows)
	for f := range c.cm.codes {
		c.cm.codes[f] = backing[f*rows : f*rows : (f+1)*rows]
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
			id, c.feat, c.vals = int32(len(c.vals)), append(c.feat, int32(f)), append(c.vals, v)
			c.put(i)
		}
		c.cm.codes[f] = append(c.cm.codes[f], id)
	}
	c.labels = append(c.labels, label)
	return nil
}

// find returns the slot holding (f, v), or the empty slot where it belongs.
func (c *Coder) find(f int32, v float64) int {
	mask, u := len(c.slots)-1, math.Float64bits(v)
	i := int((u^uint64(f)*0xBF58476D1CE4E5B9)*0x9E3779B97F4A7C15>>(64-bits.Len(uint(mask)))) & mask
	for ; c.slots[i] != 0 && (math.Float64bits(c.vals[c.slots[i]-1]) != u || c.feat[c.slots[i]-1] != f); i = (i + 1) & mask {
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
				c.slots[c.find(c.feat[ref-1], c.vals[ref-1])] = ref
			}
		}
	}
}

// Dataset returns the samples added as a dataset with no Features: its
// classification fits read the codes, and its views are views of it. It
// ends the Coder.
func (c *Coder) Dataset(names []string) *Dataset {
	c.rank()
	return &Dataset{Labels: c.labels, Names: names, coded: c.cm}
}

// rank turns the codes from pair indices into ranks. The pairs are put in
// order — by feature, then by orderable bits — in place, and each feature's
// runs of values equal under == are numbered and compacted to their first
// value (−0 when the feature holds both zeros), which is its vals.
func (c *Coder) rank() {
	codingPasses.Add(1)
	n := len(c.vals)
	// The slots, at least twice the pairs, hold their order and positions.
	order, pos := c.slots[:n], c.slots[n:2*n]
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Or(cmp.Compare(c.feat[a], c.feat[b]), cmpBits(c.vals[a], c.vals[b])) })
	for k, id := range order {
		pos[id] = int32(k)
	}
	for k := range order { // gather the pairs into order, cycle by cycle
		v, f, j := c.vals[k], c.feat[k], int32(k)
		for order[j] != int32(k) {
			src := order[j]
			c.vals[j], c.feat[j], order[j] = c.vals[src], c.feat[src], j
			j = src
		}
		c.vals[j], c.feat[j], order[j] = v, f, j
	}
	// order now holds each sorted pair's code.
	for lo, hi, w := 0, 0, 0; lo < n; lo = hi {
		f, start := c.feat[lo], w
		for ; hi < n && c.feat[hi] == f; hi++ {
			if w == start || c.vals[hi] != c.vals[w-1] {
				c.vals[w], w = c.vals[hi], w+1
			}
			order[hi] = int32(w - start - 1)
		}
		c.cm.vals[f] = c.vals[start:w:w]
	}
	for _, codes := range c.cm.codes {
		for i, id := range codes {
			codes[i] = order[pos[id]]
		}
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
