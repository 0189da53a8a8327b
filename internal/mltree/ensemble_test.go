package mltree

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"cordial/internal/xrand"
)

// noisyBlobs builds overlapping clusters plus label noise, a task where
// ensembles beat single trees.
func noisyBlobs(seed uint64, k, n int) (*Dataset, *Dataset) {
	r := xrand.New(seed)
	mk := func(n int) *Dataset {
		ds := &Dataset{}
		for c := 0; c < k; c++ {
			for i := 0; i < n; i++ {
				row := make([]float64, 6)
				for d := range row {
					row[d] = 3*float64((c+d)%k) + r.Normal(0, 2.5)
				}
				label := c
				if r.Bool(0.05) {
					label = (c + 1) % k
				}
				ds.Features = append(ds.Features, row)
				ds.Labels = append(ds.Labels, label)
			}
		}
		return ds
	}
	return mk(n), mk(n / 3)
}

func TestForestLearnsAndBeatsChance(t *testing.T) {
	train, test := noisyBlobs(1, 3, 200)
	f := NewForest(ForestConfig{NumTrees: 40, Tree: TreeConfig{MaxDepth: 8}, Seed: 1})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(f, test); acc < 0.7 {
		t.Fatalf("forest accuracy = %.3f", acc)
	}
	if f.NumTrees() != 40 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	train, _ := noisyBlobs(3, 3, 100)
	fit := func() *Forest {
		f := NewForest(ForestConfig{NumTrees: 10, Seed: 9})
		if err := f.Fit(train); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := fit(), fit()
	for _, x := range train.Features[:50] {
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("forest not deterministic for fixed seed")
			}
		}
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	train, test := noisyBlobs(4, 4, 80)
	f := NewForest(ForestConfig{NumTrees: 15, Seed: 4})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, x := range test.Features {
		sum := 0.0
		for _, p := range f.PredictProba(x) {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("forest probs sum to %g", sum)
		}
	}
}

func TestForestHandlesRareClassMissingFromBags(t *testing.T) {
	// One sample of a rare class: many bootstrap bags will miss it; the
	// forest must still align probabilities correctly.
	train, _ := noisyBlobs(5, 2, 100)
	train.Features = append(train.Features, []float64{99, 99, 99, 99, 99, 99})
	train.Labels = append(train.Labels, 7)
	f := NewForest(ForestConfig{NumTrees: 20, Seed: 5})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Classes()); got != 3 {
		t.Fatalf("classes = %v", f.Classes())
	}
	probs := f.PredictProba([]float64{99, 99, 99, 99, 99, 99})
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum to %g", sum)
	}
}

func TestGBDTLearnsBinary(t *testing.T) {
	train, test := noisyBlobs(6, 2, 250)
	g := NewGBDT(GBDTConfig{Rounds: 60, MaxDepth: 3, Seed: 6})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(g, test); acc < 0.8 {
		t.Fatalf("GBDT binary accuracy = %.3f", acc)
	}
	if g.NumTrees() != 60 {
		t.Fatalf("NumTrees = %d", g.NumTrees())
	}
}

func TestGBDTLearnsMulticlass(t *testing.T) {
	train, test := noisyBlobs(7, 3, 200)
	g := NewGBDT(GBDTConfig{Rounds: 40, MaxDepth: 3, Seed: 7})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(g, test); acc < 0.7 {
		t.Fatalf("GBDT multiclass accuracy = %.3f", acc)
	}
	// 3 one-vs-rest arms × 40 rounds.
	if g.NumTrees() != 120 {
		t.Fatalf("NumTrees = %d", g.NumTrees())
	}
}

func TestGBDTSubsampling(t *testing.T) {
	train, test := noisyBlobs(8, 2, 250)
	g := NewGBDT(GBDTConfig{Rounds: 60, MaxDepth: 3, SubsampleRatio: 0.7, ColsampleRatio: 0.7, Seed: 8})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(g, test); acc < 0.75 {
		t.Fatalf("subsampled GBDT accuracy = %.3f", acc)
	}
}

func TestGBDTRejectsSingleClass(t *testing.T) {
	ds := &Dataset{Features: [][]float64{{1}, {2}}, Labels: []int{0, 0}}
	if err := NewGBDT(GBDTConfig{Rounds: 2}).Fit(ds); err == nil {
		t.Fatal("single-class dataset accepted")
	}
}

func TestGBDTProbaSumsToOne(t *testing.T) {
	train, test := noisyBlobs(9, 3, 100)
	g := NewGBDT(GBDTConfig{Rounds: 15, Seed: 9})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, x := range test.Features {
		sum := 0.0
		for _, p := range g.PredictProba(x) {
			if p < 0 {
				t.Fatalf("negative probability %g", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("GBDT probs sum to %g", sum)
		}
	}
}

func TestHistGBDTLearnsBinary(t *testing.T) {
	train, test := noisyBlobs(10, 2, 250)
	h := NewHistGBDT(HistGBDTConfig{Rounds: 60, MaxLeaves: 15, Seed: 10})
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(h, test); acc < 0.8 {
		t.Fatalf("HistGBDT binary accuracy = %.3f", acc)
	}
	if h.NumTrees() != 60 {
		t.Fatalf("NumTrees = %d", h.NumTrees())
	}
}

func TestHistGBDTLearnsMulticlass(t *testing.T) {
	train, test := noisyBlobs(11, 3, 200)
	h := NewHistGBDT(HistGBDTConfig{Rounds: 40, MaxLeaves: 15, Seed: 11})
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(h, test); acc < 0.7 {
		t.Fatalf("HistGBDT multiclass accuracy = %.3f", acc)
	}
}

func TestHistGBDTRejectsSingleClass(t *testing.T) {
	ds := &Dataset{Features: [][]float64{{1}, {2}}, Labels: []int{3, 3}}
	if err := NewHistGBDT(HistGBDTConfig{Rounds: 2}).Fit(ds); err == nil {
		t.Fatal("single-class dataset accepted")
	}
}

// TestBinnerMonotone checks that histBins maps codes to bins in value order:
// with few distinct values each has a bin of its own, with many the bins
// merge them into at most histMaxBins, and either way a code's bin never falls
// as the code rises and each cut is the last code of its bin.
func TestBinnerMonotone(t *testing.T) {
	for _, n := range []int{8, 1000} {
		ds := &Dataset{}
		for i := range n {
			ds.Features = append(ds.Features, []float64{float64(i + 1)})
			ds.Labels = append(ds.Labels, i%2)
		}
		bin, cut := histBins(fitRowsOf(ds), 0)
		if want := min(n, histMaxBins); len(cut)+1 != want {
			t.Fatalf("%d values: %d bins, want %d", n, len(cut)+1, want)
		}
		prev := 0
		for c, b := range bin {
			if int(b) < prev || int(b) > prev+1 || int(b) > len(cut) {
				t.Fatalf("%d values: code %d in bin %d after bin %d", n, c, b, prev)
			}
			prev = int(b)
		}
		for j, c := range cut {
			if int(bin[c]) != j || int(bin[c+1]) != j+1 {
				t.Fatalf("%d values: cut %d at code %d ends bin %d", n, j, c, bin[c])
			}
		}
	}
}

// TestBinnerConstantFeature checks that a feature with one value has one bin
// and no cut, and that the last bin is unbounded: a view that holds only a
// source's smaller values puts the codes of its larger ones in its last bin.
func TestBinnerConstantFeature(t *testing.T) {
	ds := &Dataset{Features: [][]float64{{5}, {5}, {5}}, Labels: []int{0, 1, 0}}
	if bin, cut := histBins(fitRowsOf(ds), 0); len(cut) != 0 || !slices.Equal(bin, []uint8{0}) {
		t.Fatalf("constant feature: bins %v, cuts %v; want one bin", bin, cut)
	}
	src := &Dataset{Features: [][]float64{{5}, {99}, {5}, {5}}, Labels: []int{0, 1, 0, 1}}
	if bin, cut := histBins(fitRowsOf(src.Subset([]int{0, 2, 3})), 0); len(cut) != 0 || !slices.Equal(bin, []uint8{0, 0}) {
		t.Fatalf("constant view: bins %v, cuts %v; want the code of 99 in the one bin", bin, cut)
	}
}

// TestBoostBinsMatchBinner holds histBins to a float binner: on a dataset and
// on a view that repeats rows, each feature's cuts are the values at ranks
// k·(n−1)/histMaxBins of its sorted samples, distinct and below the largest,
// and every sample's code lands in the bin of the first cut its value is at
// most (past the last cut: the last bin; a constant feature has one bin).
func TestBoostBinsMatchBinner(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		ds, _ := growerCase(seed)
		r := xrand.New(seed)
		repeats := make([]int, 3*ds.NumSamples())
		for i := range repeats {
			repeats[i] = r.Intn(ds.NumSamples())
		}
		for _, view := range []*Dataset{ds, ds.Subset(repeats)} {
			fr := fitRowsOf(view)
			for f := range fr.codes {
				vals := make([]float64, fr.n)
				for i, row := range view.Features {
					vals[i] = row[f]
				}
				slices.Sort(vals)
				var want []float64
				for k := 1; k < histMaxBins; k++ {
					if v := vals[k*(fr.n-1)/histMaxBins]; v < vals[fr.n-1] && (len(want) == 0 || v > want[len(want)-1]) {
						want = append(want, v)
					}
				}
				bin, cut := histBins(fr, f)
				got := make([]float64, len(cut))
				for j, c := range cut {
					got[j] = fr.vals[f][c]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d feature %d: cuts at %v, want %v", seed, f, got, want)
				}
				for i, row := range view.Features {
					if got, in := int(bin[fr.codes[f].at(fr.row(i))]), sort.SearchFloat64s(want, row[f]); got != in {
						t.Fatalf("seed %d feature %d: %v is in bin %d, want %d", seed, f, row[f], got, in)
					}
				}
			}
		}
	}
}

func TestSerializeRoundTripAllModels(t *testing.T) {
	train, test := noisyBlobs(13, 3, 120)
	models := []Classifier{
		newTree(TreeConfig{MaxDepth: 6}, nil),
		NewForest(ForestConfig{NumTrees: 10, Seed: 13}),
		NewGBDT(GBDTConfig{Rounds: 10, Seed: 13}),
		NewHistGBDT(HistGBDTConfig{Rounds: 10, Seed: 13}),
	}
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%T: Save: %v", m, err)
		}
		loaded, err := load(&buf)
		if err != nil {
			t.Fatalf("%T: Load: %v", m, err)
		}
		if got, want := len(loaded.Classes()), len(m.Classes()); got != want {
			t.Fatalf("%T: classes %d vs %d", m, got, want)
		}
		for _, x := range test.Features[:60] {
			pa, pb := m.PredictProba(x), loaded.PredictProba(x)
			for i := range pa {
				if math.Abs(pa[i]-pb[i]) > 1e-12 {
					t.Fatalf("%T: prediction changed after round trip", m)
				}
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := load(bytes.NewReader([]byte(`{"kind":"alien","classes":[],"payload":{}}`))); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := load(bytes.NewReader([]byte(`{"kind":"tree","classes":[0],"payload":{}}`))); err == nil {
		t.Fatal("rootless tree accepted")
	}
}

func TestEnsemblesBeatSingleTreeOnNoisyData(t *testing.T) {
	// The paper's rationale for tree ensembles: variance reduction. On a
	// noisy task the forest should not do worse than a deep single tree.
	train, test := noisyBlobs(14, 3, 250)
	tree := newTree(TreeConfig{}, nil) // fully grown, overfits
	if err := tree.Fit(train); err != nil {
		t.Fatal(err)
	}
	forest := NewForest(ForestConfig{NumTrees: 50, Seed: 14})
	if err := forest.Fit(train); err != nil {
		t.Fatal(err)
	}
	ta, fa := accuracy(tree, test), accuracy(forest, test)
	if fa < ta-0.02 {
		t.Fatalf("forest (%.3f) worse than single tree (%.3f)", fa, ta)
	}
}

func BenchmarkForestFit(b *testing.B) {
	train, _ := noisyBlobs(1, 3, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForest(ForestConfig{NumTrees: 20, Seed: uint64(i)})
		if err := f.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBDTFit(b *testing.B) {
	train, _ := noisyBlobs(1, 2, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGBDT(GBDTConfig{Rounds: 20, Seed: uint64(i)})
		if err := g.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistGBDTFit(b *testing.B) {
	train, _ := noisyBlobs(1, 2, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHistGBDT(HistGBDTConfig{Rounds: 20, Seed: uint64(i)})
		if err := h.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForestParallelFitDeterministic(t *testing.T) {
	train, test := noisyBlobs(19, 3, 150)
	fit := func(parallelism int) *Forest {
		f := NewForest(ForestConfig{NumTrees: 16, Seed: 19, Parallelism: parallelism})
		if err := f.Fit(train); err != nil {
			t.Fatal(err)
		}
		return f
	}
	serial := fit(1)
	parallel := fit(4)
	for _, x := range test.Features {
		ps, pp := serial.PredictProba(x), parallel.PredictProba(x)
		for i := range ps {
			if ps[i] != pp[i] {
				t.Fatal("parallel fit changed predictions")
			}
		}
	}
}
