// Package rowset holds the sorted-slice tables that per-bank state is made
// of: the feature accumulator's distinct-row sets and per-row counts, and
// the stream engine's UER-row and spared-row sets. A bank touches a handful
// of rows, so a sorted slice of 32-bit rows costs a few dozen bytes and one
// allocation where a map costs hundreds of bytes and several — and it comes
// out of a snapshot already in the order the snapshot stores it.
package rowset

import (
	"cmp"
	"slices"
)

// minCap is the capacity a table starts with; tables double from there, so
// one pays for at most twice the rows it holds and for one allocation per
// doubling — no more growth steps than a map would take.
const minCap = 4

// InsertAt inserts v at index i of a sorted table, doubling a full one.
func InsertAt[T any](s []T, i int, v T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), max(minCap, 2*cap(s)))
		copy(grown, s)
		s = grown
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Set is a sorted set of distinct rows. The zero value is an empty set that
// owns no memory; rows must fit 32 bits (a bank has far fewer).
type Set []int32

// Find returns the index of the first member ≥ row and whether it is row.
func (s Set) Find(row int) (int, bool) {
	return slices.BinarySearchFunc(s, row, func(have int32, row int) int {
		return cmp.Compare(int(have), row)
	})
}

// Has reports whether row is a member.
func (s Set) Has(row int) bool {
	_, found := s.Find(row)
	return found
}

// Add inserts row, reporting whether it was new.
func (s *Set) Add(row int) bool {
	i, found := s.Find(row)
	if !found {
		*s = InsertAt(*s, i, int32(row))
	}
	return !found
}
