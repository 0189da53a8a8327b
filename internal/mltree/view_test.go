package mltree

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"cordial/internal/xrand"
)

// deepCopy returns the dataset a caller would build by hand from ds's samples:
// fresh rows, fresh labels, no memory of where they came from.
func deepCopy(ds *Dataset) *Dataset {
	out := &Dataset{Labels: slices.Clone(ds.Labels), Names: ds.Names}
	for _, row := range ds.Features {
		out.Features = append(out.Features, slices.Clone(row))
	}
	return out
}

// viewModels returns one unfitted model of every kind (the forest at
// Parallelism 1 and 8, the tree with a generator so that it subsamples
// features), freshly seeded.
func viewModels() map[string]Classifier {
	return map[string]Classifier{
		"Tree":     newTree(TreeConfig{MaxDepth: 8, MaxFeatures: 4}, xrand.New(3)),
		"Forest/1": NewForest(ForestConfig{NumTrees: 9, Seed: 7, Parallelism: 1}),
		"Forest/8": NewForest(ForestConfig{NumTrees: 9, Seed: 7, Parallelism: 8}),
		"GBDT":     NewGBDT(GBDTConfig{Rounds: 6, Seed: 7, Parallelism: 2}),
		"HistGBDT": NewHistGBDT(HistGBDTConfig{Rounds: 6, Seed: 7, Parallelism: 2}),
	}
}

// assertSameFit requires two fitted models to be the same model: saved bytes
// and prediction bits on X.
func assertSameFit(t *testing.T, label string, got, want Classifier, X [][]float64) {
	t.Helper()
	var gb, wb bytes.Buffer
	if err := Save(&gb, got); err != nil {
		t.Fatal(err)
	}
	if err := Save(&wb, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: the view's model file differs from the copy's", label)
	}
	gp, wp := got.PredictBatch(X), want.PredictBatch(X)
	for i := range gp {
		assertBitsEqual(t, label+" prediction", gp[i], wp[i])
	}
}

// TestViewFitMatchesCopyFit is the view contract: for every model kind, Fit on
// a view of a dataset is Fit on a deep copy of the same samples — over
// shuffled subsets, index sets that repeat rows (so a row's multiplicity sums
// over samples), views on which a column of the
// source is constant or a class is absent, and views of views, with either
// scoring path forced and with the default cut-over — and a forest scores a
// coded held-out view as it scores its floats.
func TestViewFitMatchesCopyFit(t *testing.T) {
	saved := histCutover
	t.Cleanup(func() { histCutover = saved })
	for seed := uint64(1); seed <= 12; seed++ {
		// A view and its copy may score a node by different paths (the source
		// knows more values than the view holds); a third of the seeds force
		// each path on both.
		histCutover = []int{saved, 0, math.MaxInt32}[seed%3]
		ds, _ := growerCase(seed)
		n := ds.NumSamples()
		r := xrand.New(seed ^ 0xabc)
		perm := r.Perm(n)
		repeats := make([]int, n)
		for i := range repeats {
			repeats[i] = r.Intn(n)
		}
		var binaryZero, inner []int // column 1 is constant on the first
		for i, row := range ds.Features {
			if row[1] == 0 {
				binaryZero = append(binaryZero, i)
			}
		}
		for i := 0; i < n/2; i++ {
			inner = append(inner, r.Intn(2*n/3)) // repeats again, into the outer view
		}
		views := map[string]*Dataset{
			"shuffled":        ds.Subset(perm[:2*n/3]),
			"repeated rows":   ds.Subset(repeats),
			"constant column": ds.Subset(binaryZero),
			"view of a view":  ds.Subset(perm[:2*n/3]).Subset(inner),
		}
		heldOut := ds.Subset(perm[2*n/3:])
		for name, view := range views {
			if src, rows := view.source(); src != ds || len(rows) != view.NumSamples() {
				t.Fatalf("seed %d: the %s view does not resolve to its source", seed, name)
			}
			if len(view.Classes()) < 2 {
				continue // nothing to learn, and the boosters refuse it
			}
			cp := deepCopy(view)
			onView, onCopy := viewModels(), viewModels()
			for kind, m := range onView {
				label := fmt.Sprintf("seed %d, %s, %s", seed, name, kind)
				if err := m.Fit(view); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := onCopy[kind].Fit(cp); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameFit(t, label, m, onCopy[kind], ds.Features)

				k := len(m.Classes())
				coded, floats := make([]float64, heldOut.NumSamples()*k), make([]float64, heldOut.NumSamples()*k)
				PredictDatasetInto(coded, m, heldOut)
				m.PredictBatchInto(floats, heldOut.Features)
				assertBitsEqual(t, label+" held-out view", coded, floats)
			}
		}
		if ds.codes(false) == nil {
			t.Fatalf("seed %d: fits on views left their source uncoded", seed)
		}
	}
}

// TestConcurrentViewFits fits two forests at once on two views of a dataset
// nobody has coded yet — both reach for its codes — and requires each to be
// the forest its copy grows. Under -race it is the check that the memo is
// built once, behind the lock, and only read afterwards.
func TestConcurrentViewFits(t *testing.T) {
	ds, _ := noisyBlobs(17, 3, 200)
	perm := xrand.New(5).Perm(ds.NumSamples())
	views := []*Dataset{ds.Subset(perm[:400]), ds.Subset(perm[200:])}
	before := CodingPasses()
	forests := make([]*Forest, len(views))
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			forests[i] = NewForest(ForestConfig{NumTrees: 10, Seed: 3, Parallelism: 4})
			if err := forests[i].Fit(v); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := CodingPasses() - before; got != 1 {
		t.Fatalf("two concurrent fits on views of one dataset coded %d matrices, want 1", got)
	}
	for i, v := range views {
		want := NewForest(ForestConfig{NumTrees: 10, Seed: 3, Parallelism: 4})
		if err := want.Fit(deepCopy(v)); err != nil {
			t.Fatal(err)
		}
		assertSameFit(t, fmt.Sprintf("view %d", i), forests[i], want, ds.Features)
	}
}

// TestViewsCodeNothing counts coding passes: a dataset is coded at its first
// fit and never again — not by a refit, not by a fit on a split of it (the
// calibration refit's shape), not by k-fold subsets of it, not by a booster —
// while a dataset of its own is coded once itself, by any learner.
func TestViewsCodeNothing(t *testing.T) {
	ds, _ := noisyBlobs(23, 3, 150)
	forest := func() Classifier { return NewForest(ForestConfig{NumTrees: 5, Seed: 1, Parallelism: 2}) }
	passes := func(what string, want int64, f func()) {
		t.Helper()
		before := CodingPasses()
		f()
		if got := CodingPasses() - before; got != want {
			t.Fatalf("%s coded %d matrices, want %d", what, got, want)
		}
	}
	fit := func(m Classifier, on *Dataset) {
		t.Helper()
		if err := m.Fit(on); err != nil {
			t.Fatal(err)
		}
	}
	passes("the first fit", 1, func() { fit(forest(), ds) })
	passes("a second fit and a tree", 0, func() { fit(forest(), ds); fit(newTree(TreeConfig{}, nil), ds) })
	passes("a fit on a stratified split", 0, func() {
		train, test, err := ds.StratifiedSplit(xrand.New(2), 0.75)
		if err != nil {
			t.Fatal(err)
		}
		m := forest()
		fit(m, train)
		PredictDatasetInto(make([]float64, test.NumSamples()*3), m, test)
	})
	folds := func(on *Dataset) {
		perm := xrand.New(3).Perm(on.NumSamples())
		for k := 0; k < 5; k++ {
			var train []int
			for i, row := range perm {
				if i%5 != k {
					train = append(train, row)
				}
			}
			fit(forest(), on.Subset(train))
		}
	}
	passes("five folds", 0, func() { folds(ds) })
	passes("five folds of a fresh dataset", 1, func() { folds(deepCopy(ds)) })
	passes("the boosters on fresh datasets", 2, func() {
		fit(NewGBDT(GBDTConfig{Rounds: 2, Seed: 1}), deepCopy(ds))
		fit(NewHistGBDT(HistGBDTConfig{Rounds: 2, Seed: 1}), deepCopy(ds))
	})
	passes("the boosters on a coded dataset", 0, func() {
		fit(NewGBDT(GBDTConfig{Rounds: 2, Seed: 1}), ds)
		fit(NewHistGBDT(HistGBDTConfig{Rounds: 2, Seed: 1}), ds)
	})
}

// TestReplacedFeaturesAreRecoded replaces a fitted dataset's matrix — by
// append, by re-slicing, under a view, and a view's labels — and requires the
// next fit to see the matrix as it now is, not the codes of the old one.
func TestReplacedFeaturesAreRecoded(t *testing.T) {
	refit := func(label string, ds *Dataset, X [][]float64) {
		t.Helper()
		got := NewForest(ForestConfig{NumTrees: 8, Seed: 9, Parallelism: 2})
		want := NewForest(ForestConfig{NumTrees: 8, Seed: 9, Parallelism: 2})
		if err := got.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if err := want.Fit(deepCopy(ds)); err != nil {
			t.Fatal(err)
		}
		assertSameFit(t, label, got, want, X)
	}
	ds, extra := noisyBlobs(29, 3, 90)
	X := slices.Clone(ds.Features)
	refit("as built", ds, X)

	ds.Features, ds.Labels = ds.Features[:200:200], ds.Labels[:200] // the next append moves the matrix
	refit("re-sliced shorter", ds, X)
	for i, row := range extra.Features {
		// New values and a new largest value for every column: stale codes
		// would index past the old tables or misplace these rows.
		row[i%len(row)] = 100 + float64(i)
		ds.Features, ds.Labels = append(ds.Features, row), append(ds.Labels, extra.Labels[i])
	}
	refit("appended to", ds, X)
	ds.Features, ds.Labels = ds.Features[40:], ds.Labels[40:]
	refit("re-sliced from the front", ds, X)

	view := ds.Subset(xrand.New(1).Perm(ds.NumSamples())[:120])
	refit("a view", view, X)
	ds.Features, ds.Labels = ds.Features[:len(ds.Features)-30], ds.Labels[:len(ds.Labels)-30]
	if src, _ := view.source(); src != view {
		t.Fatal("a view still resolves to a source whose matrix was replaced")
	}
	refit("a view whose source was re-sliced", view, X)

	view = ds.Subset([]int{0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5})
	for i := 6; i < 12; i++ {
		view.Labels[i] = (view.Labels[i] + 1) % 3 // one row, two labels: no longer the source's
	}
	if src, _ := view.source(); src != view {
		t.Fatal("a relabelled view still resolves to its source")
	}
	refit("a relabelled view", view, X)
}

// TestCodedMatrix checks the coded form on the shapes that could go wrong:
// codes are ranks among distinct values, and −0 and +0 share one (valued −0
// when both occur, as a sort by orderable bits puts it first).
func TestCodedMatrix(t *testing.T) {
	negZero := math.Copysign(0, -1)
	X := [][]float64{{3, 0, -1.5}, {-2, negZero, -1.5}, {3, 1, math.MaxFloat64}, {math.SmallestNonzeroFloat64, 0, -math.MaxFloat64}, {-2, -1, -1.5}}
	cm := newCodedMatrix(X)
	wantVals := [][]float64{{-2, math.SmallestNonzeroFloat64, 3}, {-1, negZero, 1}, {-math.MaxFloat64, -1.5, math.MaxFloat64}}
	wantCodes := [][]int32{{2, 0, 2, 1, 0}, {1, 1, 2, 1, 0}, {1, 1, 2, 0, 1}}
	for f := range wantVals {
		assertBitsEqual(t, fmt.Sprintf("feature %d values", f), cm.vals[f], wantVals[f])
		if got := cm.codes[f].ints(); !slices.Equal(got, wantCodes[f]) {
			t.Errorf("feature %d codes %v, want %v", f, got, wantCodes[f])
		}
	}
}
