// Package rowset holds the row tables that per-bank state is made of: the
// sorted-slice table of the feature accumulator's rows, and Runs, the row set
// of the stream engine's UER rows, spared rows and a shadow twin's spared
// rows. A bank touches a handful of rows, so a sorted slice costs a few dozen
// bytes and one allocation where a map costs hundreds of bytes and several —
// and it comes out of a snapshot already in the order the snapshot stores it.
// A bank's spared rows are whole predicted blocks and its UER rows cluster, so
// they form a few runs of adjacent rows: a Runs holds those few in itself, and
// a bank whose runs fit there allocates nothing for them.
package rowset

import (
	"cmp"
	"slices"
)

// minCap is the capacity a table starts with; tables double from there, so
// one that outgrows it pays for at most twice the rows it holds and for one
// allocation per doubling — no more growth steps than a map would take. It is
// the row count a hot bank's feature table reaches. The benchmark's promoted
// banks at seed 1, by the rows their tables end with (1–4, 5–8, 9–16, more):
// hot_banks 0 %, 0 %, 99.8 %, 0.2 %; fleet_mem 32 %, 33 %, 35 %, 0.9 %;
// train_eval's evaluation sessions 7 %, 41 %, 48 %, 4 %. Starting at 4, most
// of them paid two or three allocations for what one holds.
const minCap = 16

// InsertAt inserts v at index i of a sorted table, doubling a full one.
func InsertAt[T any](s []T, i int, v T) []T {
	s = reserve(s, 1)[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// reserve returns a table equal to s with room for n more entries: s itself if
// it has the room, else a copy grown in one step to the smallest of its
// doublings that holds them.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	c := max(minCap, 2*cap(s))
	for c < len(s)+n {
		c *= 2
	}
	grown := make([]T, len(s), c)
	copy(grown, s)
	return grown
}

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
