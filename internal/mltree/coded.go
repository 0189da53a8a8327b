package mltree

import (
	"math"
	"sync/atomic"
)

// codedMatrix is a feature matrix as classification training reads it
// (DESIGN §7): per feature, every row's value code — the rank of its value
// among the feature's distinct values — and those values ascending. Codes are
// order-preserving, so a grower that compares codes and takes its thresholds
// from vals grows what one comparing the floats would. Values equal under ==
// share a code (so −0 and +0 do, as they share a side of every threshold).
type codedMatrix struct {
	of    matrixID    // the Features it codes
	codes [][]int32   // codes[f][i]: the code of row i's value of feature f
	vals  [][]float64 // vals[f][code]: that value
}

// codingPasses counts the matrices coded, for the tests that pin who codes.
var codingPasses atomic.Int64

// CodingPasses returns how many times this process has sorted and coded a
// feature matrix: once per dataset that a Tree or Forest was fitted on, not
// once per fit, and never for a view (Subset, the stratified split, a k-fold
// cut) of a dataset already coded.
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

// newCodedMatrix codes X one feature at a time, features in parallel: gather
// the column as radix-sortable keys, sort them with the row ids, and number
// the runs of equal values. Only the codes and the distinct values outlive
// the pass: no transposed matrix, no sorted row lists.
func newCodedMatrix(X [][]float64) *codedMatrix {
	codingPasses.Add(1)
	n, d := len(X), len(X[0])
	cm := &codedMatrix{of: idOf(X), codes: make([][]int32, d), vals: make([][]float64, d)}
	backing := make([]int32, d*n)
	want := 1
	if n*d >= minParallelSplitWork {
		want = d
	}
	// Per worker: n keys and n row ids, and as many again for the radix
	// passes to alternate with.
	keys := make([][]uint64, maxExtraWorkers+1)
	ids := make([][]int32, maxExtraWorkers+1)
	runWorkers(d, want, func(worker, f int) {
		if keys[worker] == nil {
			keys[worker], ids[worker] = make([]uint64, 2*n), make([]int32, 2*n)
		}
		k, id := keys[worker], ids[worker]
		for i, row := range X {
			k[i], id[i] = orderableBits(row[f]), int32(i)
		}
		sorted, rows := radixSortPairs(k[:n], id[:n], k[n:], id[n:])
		// Number the runs, keeping each run's first key at its code's index
		// (never ahead of the read position).
		codes, code, prev := backing[f*n:(f+1)*n:(f+1)*n], -1, 0.0
		for j, key := range sorted {
			if v := orderedFloat(key); j == 0 || v != prev {
				code++
				sorted[code], prev = key, v
			}
			codes[rows[j]] = int32(code)
		}
		vals := make([]float64, code+1)
		for c := range vals {
			vals[c] = orderedFloat(sorted[c])
		}
		cm.codes[f], cm.vals[f] = codes, vals
	})
	return cm
}

// orderableBits maps a float64 to a uint64 whose unsigned order matches the
// float's numeric order (sign bit flipped for positives, all bits flipped
// for negatives) — the classic radix-sortable float encoding.
func orderableBits(v float64) uint64 {
	u := math.Float64bits(v)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// orderedFloat is orderableBits' inverse.
func orderedFloat(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
