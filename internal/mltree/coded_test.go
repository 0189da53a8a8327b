package mltree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// FuzzCodedRows holds the row coder to the definition of the coded form: for
// any matrix — its width the first byte, then its values eight bytes each —
// the codes and values a Coder builds row by row, and those newCodedMatrix
// builds from the float rows, equal bit for bit a reference that sorts each
// column by orderable bits and numbers its runs of values equal under ==; the
// rows read back from the codes equal the matrix under ==; and a matrix with
// NaN or ±Inf is refused at its first such value with Validate's error.
func FuzzCodedRows(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, X := range [][][]float64{
		{{0, 1}, {negZero, 2}, {0, 1}, {negZero, 3}},                                    // ±0 in one column
		{{negZero, 5}, {negZero, 5}, {0, 5}, {7, 5}},                                    // −0 first, and a constant column
		{{2, 2, 2}, {1, 2, 1}, {2, 1, 2}, {1, 1, 1}},                                    // repeated values
		{{3.5, -1, math.MaxFloat64, 0}},                                                 // one row
		{{1, 2}, {math.NaN(), 0}},                                                       // NaN
		{{1, math.Inf(-1)}, {math.Inf(1), 0}},                                           // ±Inf
		{{-math.SmallestNonzeroFloat64}, {negZero}, {math.SmallestNonzeroFloat64}, {0}}, // around zero
		widthMatrix(300, 300, 3),                                                        // a column crossing 256 values, first seen out of order
	} {
		f.Add(encodeMatrix(X))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		X := decodeMatrix(data)
		if X == nil {
			return
		}
		labels := make([]int, len(X))
		c := NewCoder(len(X[0]), len(X))
		for i, row := range X {
			if err := c.Add(row, i%3); err != nil {
				want := (&Dataset{Features: X, Labels: labels}).Validate()
				if want == nil || err.Error() != want.Error() {
					t.Fatalf("row %d refused with %v, Validate says %v", i, err, want)
				}
				return
			}
		}
		ds := c.Dataset(nil)
		if err := ds.Validate(); err != nil {
			t.Fatalf("a coded dataset fails Validate: %v", err)
		}
		wantCodes, wantVals := referenceCodes(X)
		for name, cm := range map[string]*codedMatrix{"coder": ds.coderCodes(), "newCodedMatrix": newCodedMatrix(X)} {
			for j := range X[0] {
				assertBitsEqual(t, fmt.Sprintf("%s: feature %d values", name, j), cm.vals[j], wantVals[j])
				if got := cm.codes[j].ints(); !slices.Equal(got, wantCodes[j]) {
					t.Fatalf("%s: feature %d codes %v, want %v", name, j, got, wantCodes[j])
				}
			}
		}
		ds.Materialize()
		for i, row := range ds.Features {
			if !slices.Equal(row, X[i]) {
				t.Fatalf("row %d reads back as %v, want %v", i, row, X[i])
			}
		}
	})
}

// referenceCodes codes X column by column: the column's values sorted by
// orderable bits, the runs of values equal under == numbered, each run
// valued by its first value.
func referenceCodes(X [][]float64) (codes [][]int32, vals [][]float64) {
	for j := range X[0] {
		col := make([]float64, len(X))
		for i, row := range X {
			col[i] = row[j]
		}
		slices.SortFunc(col, cmpBits)
		var distinct []float64
		for _, v := range col {
			if len(distinct) == 0 || v != distinct[len(distinct)-1] {
				distinct = append(distinct, v)
			}
		}
		codes = append(codes, make([]int32, len(X)))
		for i, row := range X {
			codes[j][i] = int32(sort.SearchFloat64s(distinct, row[j])) // the first run == row[j]
		}
		vals = append(vals, distinct)
	}
	return codes, vals
}

// encodeMatrix is decodeMatrix's inverse.
func encodeMatrix(X [][]float64) []byte {
	b := []byte{byte(len(X[0]) - 1)}
	for _, row := range X {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// decodeMatrix reads a width byte (1 to 8) and then rows of float64s, little
// endian, dropping a partial last row; nil when no row is whole.
func decodeMatrix(data []byte) [][]float64 {
	if len(data) == 0 {
		return nil
	}
	width := int(data[0]%8) + 1
	var X [][]float64
	for rest := data[1:]; len(rest) >= 8*width; rest = rest[8*width:] {
		row := make([]float64, width)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*j:]))
		}
		X = append(X, row)
	}
	return X
}

// TestCodeWidths holds the codes to the reference on columns either side of
// each width's limit — 1, 256, 257, 65 536 and 65 537 distinct values over
// 65 537 rows — and checks each column is as narrow as its values allow.
func TestCodeWidths(t *testing.T) {
	X := widthMatrix(65537, 1, 256, 257, 65536, 65537)
	c := NewCoder(len(X[0]), len(X))
	for i, row := range X {
		if err := c.Add(row, i%2); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.Dataset(nil)
	wantCodes, wantVals := referenceCodes(X)
	for name, cm := range map[string]*codedMatrix{"coder": ds.coderCodes(), "newCodedMatrix": newCodedMatrix(X)} {
		for j, want := range []int{1, 1, 2, 2, 4} {
			if w := cm.codes[j].width(); w != want {
				t.Errorf("%s: the column of %d values is %d bytes wide, want %d", name, len(wantVals[j]), w, want)
			}
			assertBitsEqual(t, fmt.Sprintf("%s: feature %d values", name, j), cm.vals[j], wantVals[j])
			if !slices.Equal(cm.codes[j].ints(), wantCodes[j]) {
				t.Errorf("%s: feature %d codes differ from the reference", name, j)
			}
		}
	}
	ds.Materialize()
	for i, row := range ds.Features {
		if !slices.Equal(row, X[i]) {
			t.Fatalf("row %d reads back as %v, want %v", i, row, X[i])
		}
	}
}

// widthMatrix returns rows rows whose column j holds distinct[j] values, half
// of them negative, in an order of first appearance unlike their order.
func widthMatrix(rows int, distinct ...int) [][]float64 {
	X := newRows(rows, len(distinct))
	for i, row := range X {
		for j, d := range distinct {
			row[j] = float64(i*7919%d) - float64(d/2)
		}
	}
	return X
}

// ints returns the column's codes as int32s, whatever its width.
func (col *codeColumn) ints() []int32 {
	out := make([]int32, 0, col.len())
	for _, c := range col.u8 {
		out = append(out, int32(c))
	}
	for _, c := range col.u16 {
		out = append(out, int32(c))
	}
	for _, c := range col.u32 {
		out = append(out, int32(c))
	}
	return out
}

// width returns the bytes a code of the column takes.
func (col *codeColumn) width() int {
	switch {
	case col.u32 != nil:
		return 4
	case col.u16 != nil:
		return 2
	}
	return 1
}

// TestCodePatternMatrixAllocs pins what coding a matrix of the pattern
// dataset's shape costs: 189 rows × 29 features holding 2 194 distinct
// (feature, value) pairs, seven times the rows + rows/2 + width that NewCoder
// expects. newCodedMatrix counts the pairs first, so the set and its pair
// arrays are made once, at their size: 11 allocations. Sized from that
// expectation, the set doubled from 1 024 slots to 8 192 and its pair arrays
// regrew with it: 21.
func TestCodePatternMatrixAllocs(t *testing.T) {
	X := make([][]float64, 189)
	for i := range X {
		X[i] = make([]float64, 29)
		for f := range X[i] {
			if f < 10 {
				X[i][f] = float64(i) + float64(f)/32 // every row its own value
			} else {
				X[i][f] = float64(i % 16)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { newCodedMatrix(X) }); allocs > 11 {
		t.Errorf("coding a pattern-shaped matrix cost %v allocations, want ≤ 11", allocs)
	}
}
