package mltree

import (
	"bytes"
	"math"
	"testing"
)

// forceParallelSplits drops the work-size gate so even tiny test datasets
// exercise the feature-parallel split-search path, restoring it afterwards.
func forceParallelSplits(t *testing.T) {
	t.Helper()
	saved := minParallelSplitWork
	minParallelSplitWork = 1
	t.Cleanup(func() { minParallelSplitWork = saved })
}

// fitAll fits one of every model on the same data with the given
// parallelism, using a fixed seed per model.
func fitAll(t *testing.T, train *Dataset, parallelism int) []Classifier {
	t.Helper()
	models := []Classifier{
		NewTree(TreeConfig{MaxDepth: 8}, nil),
		NewForest(ForestConfig{NumTrees: 12, Seed: 7, Parallelism: parallelism}),
		NewGBDT(GBDTConfig{Rounds: 15, Seed: 7, Parallelism: parallelism}),
		NewHistGBDT(HistGBDTConfig{Rounds: 15, Seed: 7, Parallelism: parallelism}),
	}
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			t.Fatalf("%T.Fit: %v", m, err)
		}
	}
	return models
}

func assertSameProbs(t *testing.T, label string, a, b Classifier, X [][]float64) {
	t.Helper()
	for _, x := range X {
		pa, pb := a.PredictProba(x), b.PredictProba(x)
		if len(pa) != len(pb) {
			t.Fatalf("%s: prob lengths differ: %d vs %d", label, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: probs differ at class %d: %v vs %v", label, i, pa, pb)
			}
		}
	}
}

// TestParallelismEquivalenceAllModels asserts the tentpole correctness
// contract: a seeded fit with Parallelism=8 is bit-identical to
// Parallelism=1, for every model, with the split-search gate forced open so
// the parallel paths actually run — and so is batch inference over a batch
// large enough to pass minParallelPredictWork and fan out in row blocks.
func TestParallelismEquivalenceAllModels(t *testing.T) {
	forceParallelSplits(t)
	train, test := noisyBlobs(31, 3, 120)
	serial := fitAll(t, train, 1)
	parallel := fitAll(t, train, 8)
	batch := append(append([][]float64{}, train.Features...), test.Features...)
	if len(batch)*12 < minParallelPredictWork { // 12: the forest, the smallest ensemble
		t.Fatalf("batch of %d rows does not reach the parallel inference path", len(batch))
	}
	for i := range serial {
		assertSameProbs(t, typeName(serial[i]), serial[i], parallel[i], test.Features)
		ps, pp := serial[i].PredictBatch(batch), parallel[i].PredictBatch(batch)
		for r := range batch {
			assertBitsEqual(t, typeName(serial[i])+" batch", ps[r], pp[r])
		}
	}
}

func typeName(c Classifier) string {
	switch c.(type) {
	case *Tree:
		return "Tree"
	case *Forest:
		return "Forest"
	case *GBDT:
		return "GBDT"
	case *HistGBDT:
		return "HistGBDT"
	}
	return "Classifier"
}

func assertBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: differ at %d: %v vs %v", label, i, got, want)
		}
	}
}

// pointerForestProba is the executable specification of Forest inference:
// walk every member's pointer tree, re-align its leaf distribution onto the
// forest's class list (a bag can miss a class), sum in tree order, scale by
// 1/trees last.
func pointerForestProba(f *Forest, x []float64) []float64 {
	out := make([]float64, len(f.classes))
	idx := classIndex(f.classes)
	for _, tr := range f.trees {
		for j, p := range tr.root.navigate(x).Probs {
			out[idx[tr.classes[j]]] += p
		}
	}
	inv := 1 / float64(len(f.trees))
	for c := range out {
		out[c] *= inv
	}
	return out
}

// TestArenaForestEquivalence asserts the forest's single node arena
// reproduces the pointer forest bit for bit: on the default forest, on a
// forest with a member whose bag missed a class (the compile-time
// alignment), per row and batched, and after save→load→predict.
func TestArenaForestEquivalence(t *testing.T) {
	train, test := noisyBlobs(32, 3, 120)

	def := NewForest(ForestConfig{Seed: 7})
	if err := def.Fit(train); err != nil {
		t.Fatal(err)
	}

	// Members fitted on their own subsets, one of which holds only classes
	// 0 and 2, assembled under the full class list.
	subset := func(keep func(label int) bool) *Dataset {
		ds := &Dataset{}
		for i, l := range train.Labels {
			if keep(l) {
				ds.Features = append(ds.Features, train.Features[i])
				ds.Labels = append(ds.Labels, l)
			}
		}
		return ds
	}
	missing := &Forest{Config: ForestConfig{Parallelism: 1}, classes: train.Classes()}
	for _, ds := range []*Dataset{train, subset(func(l int) bool { return l != 1 }), subset(func(l int) bool { return l != 0 })} {
		tr := NewTree(TreeConfig{MaxDepth: 6}, nil)
		if err := tr.Fit(ds); err != nil {
			t.Fatal(err)
		}
		missing.trees = append(missing.trees, tr)
	}
	if got := len(missing.trees[1].classes); got != 2 {
		t.Fatalf("subset member has %d classes, want 2", got)
	}
	missing.arena = compileClassifier(missing.trees, missing.classes)

	for name, f := range map[string]*Forest{"default": def, "missing class": missing} {
		var buf bytes.Buffer
		if err := Save(&buf, f); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		batch, loadedBatch := f.PredictBatch(test.Features), loaded.PredictBatch(test.Features)
		for i, x := range test.Features {
			want := pointerForestProba(f, x)
			assertBitsEqual(t, name+" single", f.PredictProba(x), want)
			assertBitsEqual(t, name+" batch", batch[i], want)
			assertBitsEqual(t, name+" loaded single", loaded.PredictProba(x), want)
			assertBitsEqual(t, name+" loaded batch", loadedBatch[i], want)
		}
	}
}

// TestFlatTreeMatchesPointerNavigation asserts flat descent reproduces
// pointer navigation exactly, for single trees and boosting chains.
func TestFlatTreeMatchesPointerNavigation(t *testing.T) {
	train, test := noisyBlobs(32, 3, 120)

	tr := NewTree(TreeConfig{MaxDepth: 8}, nil)
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, x := range test.Features {
		assertBitsEqual(t, "tree", tr.PredictProba(x), tr.root.navigate(x).Probs)
	}

	g := NewGBDT(GBDTConfig{Rounds: 10, Seed: 3})
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(test.Features))
	for _, b := range g.boosters {
		b.flat.margins(got, 1, b.Bias, b.LR, test.Features)
		for i, x := range test.Features {
			want := b.Bias
			for _, tn := range b.Trees {
				want += b.LR * tn.navigate(x).Value
			}
			if got[i] != want {
				t.Fatalf("flat margin %v differs from pointer walk %v", got[i], want)
			}
		}
	}
}

// arenasOf returns the node arenas a model predicts through.
func arenasOf(m Classifier) []*flatEnsemble {
	switch m := m.(type) {
	case *Tree:
		return []*flatEnsemble{m.flat}
	case *Forest:
		return []*flatEnsemble{m.arena}
	case *GBDT:
		return chainArenas(m.boosters)
	case *HistGBDT:
		return chainArenas(m.boosters)
	}
	return nil
}

func chainArenas(boosters []*booster) (out []*flatEnsemble) {
	for _, b := range boosters {
		out = append(out, b.flat)
	}
	return out
}

// assertArenasExact asserts every arena array was allocated at exactly its
// final length: a model held by a serving process carries no append slack.
func assertArenasExact(t *testing.T, label string, m Classifier) {
	t.Helper()
	for _, fe := range arenasOf(m) {
		if fe == nil {
			t.Fatalf("%s: model has no flat form", label)
		}
		for name, slack := range map[string]int{
			"feature": cap(fe.feature) - len(fe.feature), "threshold": cap(fe.threshold) - len(fe.threshold),
			"left": cap(fe.left) - len(fe.left), "right": cap(fe.right) - len(fe.right), "leaf": cap(fe.leaf) - len(fe.leaf),
		} {
			if slack != 0 {
				t.Fatalf("%s: arena %s has %d elements of slack", label, name, slack)
			}
		}
	}
}

// TestSerializeRoundTripCompilesFlat asserts a loaded model predicts through
// a recompiled arena — one per forest, none on its members, each array
// exactly sized, as on the fitted model — and matches the original exactly,
// per-row and batched.
func TestSerializeRoundTripCompilesFlat(t *testing.T) {
	train, test := noisyBlobs(33, 3, 120)
	for _, m := range fitAll(t, train, 0) {
		assertArenasExact(t, typeName(m)+" fitted", m)
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", typeName(m), err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", typeName(m), err)
		}
		assertArenasExact(t, typeName(m)+" loaded", loaded)
		if lf, ok := loaded.(*Forest); ok {
			if len(lf.arena.roots) != len(lf.trees) {
				t.Fatal("loaded forest's arena does not cover its members")
			}
			for _, tr := range lf.trees {
				if tr.flat != nil {
					t.Fatal("loaded forest member was compiled on its own")
				}
			}
		}
		assertSameProbs(t, typeName(m), m, loaded, test.Features)
		batch := loaded.PredictBatch(test.Features)
		for i, x := range test.Features {
			assertBitsEqual(t, typeName(m)+" loaded batch", batch[i], m.PredictProba(x))
		}
	}
}

// TestLoadRejectsMisalignedMember asserts Decode refuses what the arena
// compile cannot align: a member class outside the model's class list, and
// a leaf whose distribution is not one value per class of its tree.
func TestLoadRejectsMisalignedMember(t *testing.T) {
	train, _ := noisyBlobs(36, 3, 60)
	corrupt := map[string]func(f *Forest){
		"foreign class": func(f *Forest) { f.trees[0].classes = []int{0, 1, 99} },
		"short leaf": func(f *Forest) {
			leaf := f.trees[0].root
			for !leaf.isLeaf() {
				leaf = leaf.Left
			}
			leaf.Probs = leaf.Probs[:1]
		},
		"one-child node": func(f *Forest) { f.trees[0].root.Right = nil },
	}
	for name, mutate := range corrupt {
		f := NewForest(ForestConfig{NumTrees: 3, Seed: 1})
		if err := f.Fit(train); err != nil {
			t.Fatal(err)
		}
		mutate(f)
		var buf bytes.Buffer
		if err := Save(&buf, f); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		if _, err := Load(&buf); err == nil {
			t.Fatalf("%s: corrupt forest accepted", name)
		}
	}
}

// TestPredictBatchMatchesSingle asserts PredictBatchInto and PredictBatch
// return exactly the per-row PredictProba results for every classifier (on a
// batch large enough to be tiled into row blocks), that a session-sized
// PredictBatchInto allocates nothing, and that PredictLabels matches Predict.
func TestPredictBatchMatchesSingle(t *testing.T) {
	train, test := noisyBlobs(34, 3, 120)
	X := append(append([][]float64{}, test.Features...), train.Features...)
	if len(X)*12 < minParallelPredictWork { // 12: the forest, the smallest ensemble
		t.Fatalf("batch of %d rows is not tiled", len(X))
	}
	for _, m := range fitAll(t, train, 0) {
		k := len(m.Classes())
		batch := m.PredictBatch(X)
		if len(batch) != len(X) {
			t.Fatalf("%s: batch length %d, want %d", typeName(m), len(batch), len(X))
		}
		into := make([]float64, len(X)*k+3) // spare capacity must stay untouched
		for i := range into {
			into[i] = -1
		}
		m.PredictBatchInto(into, X)
		for i, x := range X {
			single := m.PredictProba(x)
			assertBitsEqual(t, typeName(m)+" PredictBatch", batch[i], single)
			assertBitsEqual(t, typeName(m)+" PredictBatchInto", into[i*k:(i+1)*k], single)
		}
		assertBitsEqual(t, typeName(m)+" spare capacity", into[len(X)*k:], []float64{-1, -1, -1})
		if allocs := testing.AllocsPerRun(20, func() { m.PredictBatchInto(into, X[:16]) }); allocs != 0 {
			t.Fatalf("%s: 16-row PredictBatchInto allocates %v times", typeName(m), allocs)
		}
		labels := PredictLabels(m, test.Features)
		for i, x := range test.Features {
			if want := Predict(m, x); labels[i] != want {
				t.Fatalf("%s: PredictLabels[%d]=%d, Predict=%d", typeName(m), i, labels[i], want)
			}
		}
	}
}

// TestHistGBDTBinnedNavigationMatchesRaw asserts that navigating a grown
// tree via the pre-binned matrix reaches the same leaf as navigating the raw
// features — the invariant the training-time margin update relies on.
func TestHistGBDTBinnedNavigationMatchesRaw(t *testing.T) {
	train, _ := noisyBlobs(35, 3, 120)
	h := NewHistGBDT(HistGBDTConfig{Rounds: 8, Seed: 5})
	if err := h.Fit(train); err != nil {
		t.Fatal(err)
	}
	bins := newBinner(train.Features, h.Config.MaxBins)
	binned := make([][]uint16, len(train.Features))
	for i, row := range train.Features {
		br := make([]uint16, len(row))
		for f, v := range row {
			br[f] = uint16(bins.bin(f, v))
		}
		binned[i] = br
	}
	for _, b := range h.boosters {
		for _, root := range b.Trees {
			for i, row := range train.Features {
				raw := root.navigate(row)
				bn := root.navigateBinned(binned[i])
				if raw != bn {
					t.Fatalf("binned navigation reached a different leaf for row %d", i)
				}
			}
		}
	}
}

// TestRunWorkers exercises the shared pool helper directly: every index runs
// exactly once for any worker request, including degenerate ones.
func TestRunWorkers(t *testing.T) {
	for _, want := range []int{0, 1, 2, 8, 100} {
		n := 57
		counts := make([]int32, n)
		runWorkers(n, want, func(worker, i int) {
			if worker < 0 || worker > maxExtraWorkers {
				t.Errorf("worker id %d out of range", worker)
			}
			counts[i]++
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("want=%d: index %d ran %d times", want, i, c)
			}
		}
	}
	runWorkers(0, 4, func(_, _ int) { t.Fatal("task ran for n=0") })
}
