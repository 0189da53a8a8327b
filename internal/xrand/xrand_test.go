package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at draw %d: %d vs %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("two Split children produced the same first draw")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(-3, 3)
		if v < -3 || v > 3 {
			t.Fatalf("IntRange(-3,3) = %d", v)
		}
		seen[v] = true
	}
	for v := -3; v <= 3; v++ {
		if !seen[v] {
			t.Errorf("IntRange never produced %d in 1000 draws", v)
		}
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %g, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	r := New(37)
	weights := []float64{1, 0, 3, -2, 6}
	counts := make([]int, len(weights))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(weights)]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero/negative weights were chosen: %v", counts)
	}
	// Expected proportions 0.1, 0.3, 0.6 over indices 0, 2, 4.
	for i, want := range map[int]float64{0: 0.1, 2: 0.3, 4: 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d frequency %g, want ~%g", i, got, want)
		}
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	r := New(41)
	for _, tc := range []struct{ n, k int }{{10, 10}, {10, 3}, {1000, 5}, {5, 0}} {
		s := r.SampleInts(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("SampleInts(%d,%d) len = %d", tc.n, tc.k, len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("SampleInts(%d,%d) invalid: %v", tc.n, tc.k, s)
			}
			seen[v] = true
		}
	}
}

// mapSampleInts is SampleInts as it was before SampleIntsInto existed: a map
// and a fresh slice per sparse draw, Perm for a dense one. It is the
// specification of the draw sequence.
func mapSampleInts(r *RNG, n, k int) []int {
	if k == 0 {
		return nil
	}
	if k*4 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	return r.Perm(n)[:k]
}

// TestSampleIntsIntoStream asserts SampleIntsInto (and SampleInts over it)
// returns what the map-based sampler returned and leaves the generator at the
// same point, for 1000 seeded (n, k) pairs covering sparse draws over small
// and larger hash tables and the dense shuffle, into a buffer reused across
// all of them.
func TestSampleIntsIntoStream(t *testing.T) {
	pick := New(77)
	branches := map[string]int{}
	var buf []int
	for trial := 0; trial < 1000; trial++ {
		n := 1 + pick.Intn(400)
		k := pick.Intn(n + 1)
		switch {
		case k*4 >= n:
			branches["dense"]++
		case k > 16:
			branches["sparse, a table of 64 or more"]++
		default:
			branches["sparse, a small table"]++
		}
		seed := pick.Uint64()
		ref, into, wrap := New(seed), New(seed), New(seed)
		want := mapSampleInts(ref, n, k)
		buf = into.SampleIntsInto(buf, n, k)
		if !slices.Equal(buf, want) {
			t.Fatalf("SampleIntsInto(%d,%d) = %v, want %v", n, k, buf, want)
		}
		if got := wrap.SampleInts(n, k); !slices.Equal(got, want) {
			t.Fatalf("SampleInts(%d,%d) = %v, want %v", n, k, got, want)
		}
		if next := ref.Uint64(); into.Uint64() != next || wrap.Uint64() != next {
			t.Fatalf("generator position differs after sampling (%d,%d)", n, k)
		}
	}
	for _, b := range []string{"dense", "sparse, a table of 64 or more", "sparse, a small table"} {
		if branches[b] < 50 {
			t.Fatalf("only %d of 1000 draws took the %s branch", branches[b], b)
		}
	}
}

// TestSampleIntsIntoAllocs: a draw into a dst reused at its size allocates
// nothing, sparse (its dedupe set lives in dst's spare capacity) or dense.
func TestSampleIntsIntoAllocs(t *testing.T) {
	r := New(3)
	for _, tc := range []struct{ n, k int }{{1000, 5}, {21000, 2100}, {40, 30}} {
		buf := r.SampleIntsInto(nil, tc.n, tc.k)
		if allocs := testing.AllocsPerRun(20, func() { buf = r.SampleIntsInto(buf, tc.n, tc.k) }); allocs != 0 {
			t.Errorf("SampleIntsInto(%d, %d) into a reused dst: %.1f allocations, want 0", tc.n, tc.k, allocs)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(43)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

func TestShuffleGeneric(t *testing.T) {
	r := New(52)
	s := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), s...)
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	seen := make(map[string]bool)
	for _, v := range s {
		seen[v] = true
	}
	for _, v := range orig {
		if !seen[v] {
			t.Fatalf("Shuffle lost element %q", v)
		}
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := New(53)
	expectPanic("IntRange inverted", func() { r.IntRange(3, 2) })
	expectPanic("Exp zero rate", func() { r.Exp(0) })
	expectPanic("WeightedChoice empty", func() { r.WeightedChoice(nil) })
	expectPanic("WeightedChoice all-zero", func() { r.WeightedChoice([]float64{0, 0}) })
	expectPanic("SampleInts k>n", func() { r.SampleInts(2, 3) })
	expectPanic("Uint64n zero", func() { r.Uint64n(0) })
}
