package mltree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
				if !slices.Equal(cm.codes[j], wantCodes[j]) {
					t.Fatalf("%s: feature %d codes %v, want %v", name, j, cm.codes[j], wantCodes[j])
				}
			}
		}
		for i, row := range ds.rows() {
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
			codes[j][i] = int32(slices.IndexFunc(distinct, func(v float64) bool { return v == row[j] }))
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
