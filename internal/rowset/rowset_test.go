package rowset

import (
	"slices"
	"testing"
)

func TestSetAgainstMap(t *testing.T) {
	var s Set
	want := map[int]bool{}
	// A fixed scatter with repeats, descending runs and both extremes.
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
	if len(s) != len(want) || !slices.IsSorted(s) {
		t.Fatalf("set has %d members (sorted=%t), want %d", len(s), slices.IsSorted(s), len(want))
	}
	for row := -2; row < 215; row++ {
		if s.Has(row) != want[row] {
			t.Errorf("Has(%d) = %t", row, s.Has(row))
		}
	}
	if i, found := s.Find(-5); i != 0 || found {
		t.Errorf("Find below the set = %d, %t", i, found)
	}
	if i, found := s.Find(1 << 40); i != len(s) || found {
		t.Errorf("Find above the set = %d, %t", i, found)
	}
}

// TestInsertAtDoubles pins the growth policy the allocation gates rely on:
// a table reallocates only when full, and then to twice its size.
func TestInsertAtDoubles(t *testing.T) {
	var s Set
	caps := map[int]bool{}
	for row := 0; row < 100; row++ {
		s.Add(row)
		caps[cap(s)] = true
	}
	for _, c := range []int{4, 8, 16, 32, 64, 128} {
		if !caps[c] {
			t.Errorf("capacity %d never seen", c)
		}
	}
	if len(caps) != 6 {
		t.Errorf("capacities %v, want the six doublings from 4", caps)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var s Set
		s.Add(3)
		s.Add(1)
		s.Add(2)
		s.Add(1)
	}); allocs != 1 {
		t.Errorf("a four-row set cost %v allocations, want 1", allocs)
	}
}
