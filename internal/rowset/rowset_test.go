package rowset

import (
	"encoding/binary"
	"slices"
	"testing"
)

// TestSetAgainstMap holds a Runs to a map over a fixed scatter with repeats,
// descending runs and both extremes.
func TestSetAgainstMap(t *testing.T) {
	var s Runs
	want := map[int]bool{}
	for i := 0; i < 500; i++ {
		row := (i * 7919) % 211
		if i%50 == 0 {
			row = []int{0, 1<<31 - 1}[i/50%2]
		}
		if got := s.Add(row); got == want[row] {
			t.Fatalf("Add(%d) reported new=%t, want %t", row, got, !want[row])
		}
		want[row] = true
	}
	var rows []int
	s.Each(func(row int) { rows = append(rows, row) })
	if s.Count() != len(want) || len(rows) != len(want) || !slices.IsSorted(rows) {
		t.Fatalf("set counts %d and lists %d members (sorted=%t), want %d", s.Count(), len(rows), slices.IsSorted(rows), len(want))
	}
	for row := -2; row < 215; row++ {
		if s.Has(row) != want[row] {
			t.Errorf("Has(%d) = %t", row, s.Has(row))
		}
	}
	if !s.Has(1<<31-1) || s.Has(1<<31-2) {
		t.Errorf("the top row's neighbourhood: Has(2³¹−1) = %t, Has(2³¹−2) = %t", s.Has(1<<31-1), s.Has(1<<31-2))
	}
	if got := s.runs(); len(got) != 2 || got[0] != (run{0, 210}) || got[1] != (run{1<<31 - 1, 1<<31 - 1}) {
		t.Errorf("runs %v, want [0, 210] and the top row", got)
	}
}

// TestTableAgainstSortedSlice holds a Table to a sorted-slice reference over
// inserts at the front, the back and between, filled three times with a Reset
// between: after each insert its entries equal the reference's, and its heap
// slice is none up to minCap entries, 2·minCap at the next and doubles after,
// or the one an earlier fill left, which Reset keeps. What the allocation
// gates rely on is pinned in numbers: nothing up to 16 entries, one
// allocation at the 17th and one per doubling after.
func TestTableAgainstSortedSlice(t *testing.T) {
	var tab Table[int32]
	kept := 0
	for _, entries := range []int{minCap, 9 * minCap, 9 * minCap} {
		var ref []int32
		for k := 0; k < entries; k++ {
			v := int32(k * 7919 % 1009) // distinct, in no order
			i, _ := slices.BinarySearch(ref, v)
			ref = slices.Insert(ref, i, v)
			tab.Insert(i, v)
			if !slices.Equal(tab.All(), ref) {
				t.Fatalf("%d entries: table %v, want %v", len(ref), tab.All(), ref)
			}
			want := kept
			for c := 2 * minCap; want < len(ref) && len(ref) > minCap; c *= 2 {
				want = c
			}
			if tab.HeapCap() != want {
				t.Fatalf("%d entries: heap capacity %d, want %d", len(ref), tab.HeapCap(), want)
			}
		}
		tab.Reset()
		if kept = tab.HeapCap(); len(tab.All()) != 0 {
			t.Fatalf("a reset table holds %v", tab.All())
		}
	}
	for _, c := range []struct{ entries, allocs int }{{16, 0}, {17, 1}, {32, 1}, {33, 2}, {65, 3}} {
		if allocs := testing.AllocsPerRun(100, func() {
			tab := new(Table[int32])
			for v := int32(c.entries); v > 0; v-- {
				tab.Insert(0, v)
			}
		}); allocs != float64(c.allocs) {
			t.Errorf("a %d-entry table cost %v allocations, want %d", c.entries, allocs, c.allocs)
		}
	}
}

// TestRunsAllocs: a set whose runs fit inline allocates nothing and a set that
// spills allocates once until it outgrows its first heap slice. A set moved by
// value, as a bank's sets are from slot to slot, keeps its members when the
// place it was copied from is reused — inline or spilled, the copy shares no
// array with that place.
func TestRunsAllocs(t *testing.T) {
	for _, c := range []struct{ runs, allocs int }{{inlineRuns, 0}, {inlineRuns + 1, 1}, {spillRuns, 1}, {spillRuns + 1, 2}} {
		if allocs := testing.AllocsPerRun(100, func() {
			var s Runs
			for row := 0; row < 3*c.runs; row += 3 {
				s.Add(row + 1)
				s.Add(row) // joins the run after it
			}
		}); allocs != float64(c.allocs) {
			t.Errorf("a %d-run set cost %v allocations, want %d", c.runs, allocs, c.allocs)
		}
	}
	for _, runs := range []int{inlineRuns, inlineRuns + 2} {
		var slot Runs
		var want []int
		for row := 0; row < 3*runs; row += 3 {
			slot.Add(row)
			want = append(want, row)
		}
		moved := slot
		slot = Runs{}
		for row := 1; row < 3*runs; row += 3 {
			slot.Add(row)
		}
		var got []int
		moved.Each(func(row int) { got = append(got, row) })
		if !slices.Equal(got, want) {
			t.Errorf("a set of %v moved out of a reused place holds %v", want, got)
		}
	}
}

// FuzzRowRuns holds a Runs to a sorted-slice reference over any sequence of
// adds: each add's "new" result, then Has around every member, Count and the
// ascending members agree, and the runs are exactly the reference's maximal
// runs of adjacent rows — ascending, disjoint and not adjacent. The input is
// little-endian uint16 rows; the corpus covers rows 0 and 65 535 (the last row
// of a 65 536-row bank), a row that joins two runs, descending adds, and the
// spill at the inline capacity with adds after it.
func FuzzRowRuns(f *testing.F) {
	rows := func(rs ...uint16) []byte {
		var b []byte
		for _, r := range rs {
			b = binary.LittleEndian.AppendUint16(b, r)
		}
		return b
	}
	f.Add(rows(0, 65535, 1, 65534, 0))
	f.Add(rows(10, 12, 11, 14, 13))
	f.Add(rows(9, 8, 7, 6, 4, 3, 1))
	for _, runs := range []int{inlineRuns, spillRuns} {
		// runs runs, one more that spills or regrows the set, then adds that
		// join runs across the inline array and the heap slice.
		var in []uint16
		for r := 0; r <= runs; r++ {
			in = append(in, uint16(2*r))
		}
		f.Add(rows(append(in, 1, 2*uint16(runs)+1, 3, 65535, 2*uint16(runs)-1, 0)...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var s Runs
		var ref []int
		for i := 0; i+1 < len(in); i += 2 {
			row := int(binary.LittleEndian.Uint16(in[i:]))
			j, found := slices.BinarySearch(ref, row)
			if !found {
				ref = slices.Insert(ref, j, row)
			}
			if got := s.Add(row); got == found {
				t.Fatalf("Add(%d) reported new=%t, want %t", row, got, !found)
			}
		}
		for _, row := range ref {
			for _, r := range []int{row - 1, row, row + 1} {
				if _, want := slices.BinarySearch(ref, r); s.Has(r) != want {
					t.Fatalf("Has(%d) = %t, want %t", r, !want, want)
				}
			}
		}
		var got []int
		s.Each(func(row int) { got = append(got, row) })
		if s.Count() != len(ref) || !slices.Equal(got, ref) {
			t.Fatalf("the set counts %d and lists %v, want %v", s.Count(), got, ref)
		}
		var want []run
		for _, row := range ref {
			if n := len(want); n > 0 && int(want[n-1].hi) == row-1 {
				want[n-1].hi = int32(row)
			} else {
				want = append(want, run{int32(row), int32(row)})
			}
		}
		if !slices.Equal(s.runs(), want) {
			t.Fatalf("runs %v, want %v", s.runs(), want)
		}
	})
}
