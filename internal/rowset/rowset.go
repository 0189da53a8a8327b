// Package rowset holds the row tables that per-bank state is made of: Table,
// the sorted table of the feature accumulator's rows, and Runs, the row set
// of the stream engine's UER rows, spared rows and a shadow twin's spared
// rows. A bank touches a handful of rows, so a sorted table holds them in
// itself where a map costs hundreds of bytes and several allocations — and it
// comes out of a snapshot already in the order the snapshot stores it. A
// bank's spared rows are whole predicted blocks and its UER rows cluster, so
// they form a few runs of adjacent rows: a Runs holds those few in itself.
// Either kind allocates nothing for a bank whose rows fit inside it.
package rowset

import (
	"cmp"
	"slices"
)

// minCap is how many entries a Table holds in itself; one that outgrows them
// moves to a heap slice of twice as many and doubles from there, so it pays
// for at most twice the entries it holds and for one allocation per doubling —
// no more growth steps than a map would take. It is the row count a hot bank's
// feature table reaches. The benchmark's promoted banks at seed 1, by the rows
// their tables end with (1–4, 5–8, 9–16, more): hot_banks 0 %, 0 %, 99.8 %,
// 0.2 %; fleet_mem 32 %, 33 %, 35 %, 0.9 %; train_eval's evaluation sessions
// 7 %, 41 %, 48 %, 4 %. A table started on the heap at 4 paid two or three
// allocations for what one holds.
const minCap = 16

// Table is a sorted table of entries, kept in order by its caller. The zero
// value is an empty table that owns no memory. Up to minCap entries sit in the
// table itself; a table with more moves all of them to a heap slice of its
// own. As with Runs, the slice never aliases the inline array, so a Table
// copied to a new place keeps its entries when the old place is refilled; only
// a spilled copy shares its heap slice, as any copied slice does, and Reset
// keeps that slice.
type Table[T any] struct {
	inline [minCap]T
	n      uint8 // entries in inline; unused once spilled
	spill  []T   // every entry once the table has spilled, else nil
}

// All returns the table's entries in order; the slice aliases the table, and
// an Insert or Reset ends it.
func (t *Table[T]) All() []T {
	if t.spill != nil {
		return t.spill
	}
	return t.inline[:t.n]
}

// Insert puts v in at index i. A full table moves its entries to a heap slice
// twice its size: the inline array's minCap to 2·minCap, a spill slice to
// twice its capacity.
func (t *Table[T]) Insert(i int, v T) {
	if t.spill == nil && int(t.n) < minCap {
		copy(t.inline[i+1:t.n+1], t.inline[i:t.n])
		t.inline[i] = v
		t.n++
		return
	}
	if len(t.spill) == cap(t.spill) {
		t.spill = append(make([]T, 0, max(2*minCap, 2*cap(t.spill))), t.All()...)
	}
	t.spill = t.spill[:len(t.spill)+1]
	copy(t.spill[i+1:], t.spill[i:])
	t.spill[i] = v
}

// Reset empties the table. A spilled table keeps its heap slice, so a caller
// that fills one table bank after bank allocates it once.
func (t *Table[T]) Reset() { t.n, t.spill = 0, t.spill[:0] }

// HeapCap returns the capacity of the table's heap slice: 0 while its entries
// sit inline.
func (t *Table[T]) HeapCap() int { return cap(t.spill) }

// run is the rows lo through hi, both included.
type run struct{ lo, hi int32 }

// inlineRuns is how many runs a Runs holds in itself, and spillRuns how many
// the heap slice of a set that outgrows them starts with.
const inlineRuns, spillRuns = 3, 8

// Runs is a set of rows kept as ascending, disjoint, non-adjacent runs. The
// zero value is an empty set that owns no memory; rows must be non-negative
// and fit 32 bits (a bank has far fewer). Up to inlineRuns runs sit in the set
// itself; a set with more moves all of them to a heap slice of its own. The
// slice never aliases the inline array: a Runs copied to a new place, as a
// bank's sets are with its slot, holds the same set there when the old place
// is reused.
type Runs struct {
	inline [inlineRuns]run
	n      uint8 // runs in inline; unused once spilled
	spill  []run // every run once the set has spilled, else nil
}

// runs returns the set's runs, ascending; the slice aliases the set.
func (s *Runs) runs() []run {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// search returns the index of the first run ending at or after row.
func search(runs []run, row int) int {
	i, _ := slices.BinarySearchFunc(runs, row, func(r run, row int) int { return cmp.Compare(int(r.hi), row) })
	return i
}

// Has reports whether row is a member.
func (s *Runs) Has(row int) bool {
	runs := s.runs()
	i := search(runs, row)
	return i < len(runs) && int(runs[i].lo) <= row
}

// Add inserts row, reporting whether it was new. A row next to a run joins
// it; one between two runs joins them into one.
func (s *Runs) Add(row int) bool {
	runs := s.runs()
	i := search(runs, row)
	if i < len(runs) && int(runs[i].lo) <= row {
		return false
	}
	before := i > 0 && int(runs[i-1].hi) == row-1
	after := i < len(runs) && int(runs[i].lo) == row+1
	switch {
	case before && after:
		runs[i-1].hi = runs[i].hi
		s.remove(i)
	case before:
		runs[i-1].hi = int32(row)
	case after:
		runs[i].lo = int32(row)
	default:
		s.insert(i, run{int32(row), int32(row)})
	}
	return true
}

// insert puts r in at index i, spilling a full inline array to the heap.
func (s *Runs) insert(i int, r run) {
	if s.spill == nil && int(s.n) < inlineRuns {
		copy(s.inline[i+1:s.n+1], s.inline[i:s.n])
		s.inline[i] = r
		s.n++
		return
	}
	if s.spill == nil {
		s.spill = append(make([]run, 0, spillRuns), s.inline[:s.n]...)
	}
	s.spill = slices.Insert(s.spill, i, r)
}

// remove takes out the run at index i.
func (s *Runs) remove(i int) {
	if s.spill != nil {
		s.spill = slices.Delete(s.spill, i, i+1)
		return
	}
	copy(s.inline[i:s.n], s.inline[i+1:s.n])
	s.n--
	s.inline[s.n] = run{}
}

// Count returns how many rows the set holds.
func (s *Runs) Count() int {
	n := 0
	for _, r := range s.runs() {
		n += int(r.hi) - int(r.lo) + 1
	}
	return n
}

// Each calls fn with every member, ascending.
func (s *Runs) Each(fn func(row int)) {
	for _, r := range s.runs() {
		for row := int(r.lo); row <= int(r.hi); row++ {
			fn(row)
		}
	}
}
