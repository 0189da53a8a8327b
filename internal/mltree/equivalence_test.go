package mltree

import (
	"bytes"
	"encoding/json"
	"fmt"
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
		newTree(TreeConfig{MaxDepth: 8}, nil),
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
		for _, n := range append(batchSizes, len(batch)) {
			ps, pp := serial[i].PredictBatch(batch[:n]), parallel[i].PredictBatch(batch[:n])
			for r := range ps {
				assertBitsEqual(t, typeName(serial[i])+" batch", ps[r], pp[r])
			}
		}
	}
}

// batchSizes straddle the kernel's seams: fewer rows than one eight-row
// interleave, whole groups, groups with a remainder, a whole tile of 64 rows
// and its neighbours, and several tiles.
var batchSizes = []int{1, 3, 16, 63, 64, 65, 480}

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

// pointerModel is the executable specification of inference: a model's trees
// as the pointer nodes the file format and the boosters' training use, walked
// one row at a time with float comparisons. It is the reference the arena
// kernels are held to, bit for bit.
type pointerModel struct {
	classes     []int
	trees       []*treeNode // a tree's or a forest's members, or
	treeClasses [][]int
	boosters    []*booster // a boosted model's chains
}

// navigate walks the tree for sample x and returns the leaf.
func (n *treeNode) navigate(x []float64) *treeNode {
	cur := n
	for !cur.isLeaf() {
		if x[cur.Feature] <= cur.Threshold {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur
}

func (p *pointerModel) proba(x []float64) []float64 {
	k := len(p.classes)
	out := make([]float64, k)
	if p.boosters == nil {
		// Re-align every member's leaf distribution onto the model's class
		// list (a bag can miss a class), sum in tree order, scale last.
		idx := classIndex(p.classes)
		for i, root := range p.trees {
			for j, v := range root.navigate(x).Probs {
				out[idx[p.treeClasses[i][j]]] += v
			}
		}
		inv := 1 / float64(len(p.trees))
		for c := range out {
			out[c] *= inv
		}
		return out
	}
	total := 0.0
	for a, b := range p.boosters {
		margin := b.Bias
		for _, root := range b.Trees {
			margin += b.LR * root.navigate(x).Value
		}
		if k == 2 {
			return []float64{1 - sigmoid(margin), sigmoid(margin)}
		}
		out[a] = sigmoid(margin)
		total += out[a]
	}
	for a := range out {
		out[a] /= total
	}
	return out
}

// savedPointerModel decodes what Save writes of m into pointer trees, the way
// every reader did before models compiled to an arena. TestParentFixture pins
// those bytes to files the parent commit wrote from its own pointer trees.
func savedPointerModel(t *testing.T, m Classifier) *pointerModel {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	p := &pointerModel{classes: env.Classes}
	var err error
	switch env.Kind {
	case kindTree:
		var tp treePayload
		err = json.Unmarshal(env.Payload, &tp)
		p.trees, p.treeClasses = []*treeNode{tp.Root}, [][]int{env.Classes}
	case kindForest:
		var fp forestPayload
		err = json.Unmarshal(env.Payload, &fp)
		for _, tp := range fp.Trees {
			p.trees = append(p.trees, tp.Root)
		}
		p.treeClasses = fp.TreeClasses
	default:
		var gp boostedPayload
		err = json.Unmarshal(env.Payload, &gp)
		p.boosters = gp.Boosters
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// assertMatchesPointers asserts m predicts exactly what the pointer walk
// does: per row, and batched at every size of batchSizes.
func assertMatchesPointers(t *testing.T, label string, m Classifier, ref *pointerModel, X [][]float64) {
	t.Helper()
	if len(X) < batchSizes[len(batchSizes)-1] {
		t.Fatalf("%s: %d rows do not cover the batch sizes", label, len(X))
	}
	want := make([][]float64, len(X))
	for i, x := range X {
		want[i] = ref.proba(x)
		assertBitsEqual(t, label+" single", m.PredictProba(x), want[i])
	}
	for _, n := range batchSizes {
		off := len(X) - n // not always the same leading rows
		for i, got := range m.PredictBatch(X[off:]) {
			assertBitsEqual(t, fmt.Sprintf("%s batch of %d row %d", label, n, i), got, want[off+i])
		}
	}
}

// reload returns m after a Save and a Load.
func reload(t *testing.T, m Classifier) Classifier {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestArenaForestEquivalence asserts the forest's arena reproduces the
// pointer forest bit for bit: on the default forest, on a forest with a
// member whose bag missed a class (the alignment at Load), per row and at
// every batch size, and after save→load→predict.
func TestArenaForestEquivalence(t *testing.T) {
	train, test := noisyBlobs(32, 3, 120)
	X := append(append([][]float64{}, train.Features...), test.Features...)

	def := NewForest(ForestConfig{Seed: 7})
	if err := def.Fit(train); err != nil {
		t.Fatal(err)
	}
	ref := savedPointerModel(t, def)
	assertMatchesPointers(t, "default", def, ref, X)
	assertMatchesPointers(t, "default loaded", reload(t, def), ref, X)

	missing, ref := missingClassForest(t, train)
	assertMatchesPointers(t, "missing class", missing, ref, X)
	assertMatchesPointers(t, "missing class loaded", reload(t, missing), ref, X)
}

// missingClassForest assembles, as a model file, a forest of three trees
// grown on their own subsets of train — one holding only classes 0 and 2, one
// only 1 and 2 — under the full class list, and returns it loaded, with the
// members' pointer trees straight from the grower.
func missingClassForest(t *testing.T, train *Dataset) (*Forest, *pointerModel) {
	t.Helper()
	ref := &pointerModel{classes: train.Classes()}
	cfg := TreeConfig{MaxDepth: 6}
	fp := forestPayload{Config: ForestConfig{Parallelism: 1}}
	for _, drop := range []int{-1, 1, 0} {
		ds := &Dataset{}
		for i, l := range train.Labels {
			if l != drop {
				ds.Features = append(ds.Features, train.Features[i])
				ds.Labels = append(ds.Labels, l)
			}
		}
		root, classes := growPointerTree(ds, cfg), ds.Classes()
		ref.trees, ref.treeClasses = append(ref.trees, root), append(ref.treeClasses, classes)
		fp.Trees, fp.TreeClasses = append(fp.Trees, treePayload{Config: cfg, Root: root}), append(fp.TreeClasses, classes)
	}
	if got := len(ref.treeClasses[1]); got != 2 {
		t.Fatalf("subset member has %d classes, want 2", got)
	}
	m, err := load(bytes.NewReader(marshalModel(t, kindForest, ref.classes, fp)))
	if err != nil {
		t.Fatal(err)
	}
	return m.(*Forest), ref
}

// growPointerTree is Tree.Fit up to the grower's output, as a pointer tree.
func growPointerTree(ds *Dataset, cfg TreeConfig) *treeNode {
	classes := ds.Classes()
	g := newGrower(newClassData(ds, classes), cfg)
	for i := range g.mult {
		g.mult[i] = 1
	}
	return pointerOf(g.fit(nil), len(classes))
}

// pointerOf converts a grower's tree to pointer nodes, k probabilities a leaf.
func pointerOf(gt grownTree, k int) *treeNode {
	nodes := make([]treeNode, gt.nodes)
	for i := range nodes {
		gn := gt.node(i)
		if gn.thr == grownLeaf {
			for _, u := range gt.leaves()[int(gn.at)*k:][:k] {
				nodes[i].Probs = append(nodes[i].Probs, math.Float64frombits(u))
			}
			continue
		}
		nodes[i] = treeNode{Feature: gt.feature(int(gn.thr)), Threshold: gt.threshold(int(gn.thr)), Left: &nodes[gn.at], Right: &nodes[gn.at+1]}
	}
	return &nodes[0]
}

func (n *treeNode) countLeaves() int {
	if n.isLeaf() {
		return 1
	}
	return n.Left.countLeaves() + n.Right.countLeaves()
}

// marshalModel writes a model file from its parts.
func marshalModel(t *testing.T, kind string, classes []int, payload any) []byte {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(envelope{Kind: kind, Classes: classes, Payload: raw})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlatTreeMatchesPointerNavigation asserts the arena reproduces pointer
// navigation exactly for a single tree and for both boosters' chains, the
// pointers being the trainers' own: the grower's tree, and the chains as
// boosting grew and navigated them, before Fit compiled and dropped them.
func TestFlatTreeMatchesPointerNavigation(t *testing.T) {
	train, test := noisyBlobs(32, 3, 120)
	X := append(append([][]float64{}, train.Features...), test.Features...)

	tr := newTree(TreeConfig{MaxDepth: 8}, nil)
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	assertMatchesPointers(t, "tree", tr, &pointerModel{
		classes: tr.classes, trees: []*treeNode{growPointerTree(train, tr.Config)}, treeClasses: [][]int{tr.classes},
	}, X)

	g := NewGBDT(GBDTConfig{Rounds: 10, Seed: 3})
	h := NewHistGBDT(HistGBDTConfig{Rounds: 10, Seed: 3})
	for _, m := range []Classifier{g, h} {
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
	}
	assertMatchesPointers(t, "gbdt", g, &pointerModel{classes: g.classes, boosters: gbdtChains(g, train)}, X)
	assertMatchesPointers(t, "histgbdt", h, &pointerModel{classes: h.classes, boosters: histChains(h, train)}, X)
}

// gbdtChains trains g's chains as Fit does and returns them uncompiled.
func gbdtChains(g *GBDT, ds *Dataset) []*booster {
	return trainArms(ds, ds.Classes(), 1, g.Config.Seed, g.fitBinary)
}

// histChains trains h's chains as Fit does and returns them uncompiled.
func histChains(h *HistGBDT, ds *Dataset) []*booster {
	return trainArms(ds, ds.Classes(), 1, h.Config.Seed, h.fitBinary)
}

// assertArenaExact asserts every arena array was allocated at exactly its
// final length: a model held by a serving process carries no append slack.
func assertArenaExact(t *testing.T, label string, m Classifier) {
	t.Helper()
	a, _ := arenaOf(m)
	if a == nil {
		t.Fatalf("%s: model has no arena", label)
	}
	tables := 0
	for _, tab := range a.thr {
		tables += cap(tab) - len(tab)
	}
	for name, slack := range map[string]int{
		"nodes": cap(a.nodes) - len(a.nodes), "roots": cap(a.roots) - len(a.roots),
		"leaf": cap(a.leaf) - len(a.leaf), "thr": cap(a.thr) - len(a.thr), "threshold tables": tables,
	} {
		if slack != 0 {
			t.Fatalf("%s: arena %s has %d elements of slack", label, name, slack)
		}
	}
}

// TestSerializeRoundTripCompilesFlat asserts a loaded model predicts through
// a recompiled arena — one per model, each array exactly sized, as on the
// fitted model — matches the original exactly, per-row and batched, and saves
// to the bytes it was loaded from.
func TestSerializeRoundTripCompilesFlat(t *testing.T) {
	train, test := noisyBlobs(33, 3, 120)
	for _, m := range fitAll(t, train, 0) {
		assertArenaExact(t, typeName(m)+" fitted", m)
		var buf, again bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("%s: save: %v", typeName(m), err)
		}
		loaded, err := load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", typeName(m), err)
		}
		assertArenaExact(t, typeName(m)+" loaded", loaded)
		if err := Save(&again, loaded); err != nil || !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("%s: save→load→save changed the file (err %v)", typeName(m), err)
		}
		if lf, ok := loaded.(*Forest); ok && (len(lf.arena.roots) != len(lf.members) || lf.NumTrees() != 12) {
			t.Fatal("loaded forest's arena does not cover its members")
		}
		assertSameProbs(t, typeName(m), m, loaded, test.Features)
		batch := loaded.PredictBatch(test.Features)
		for i, x := range test.Features {
			assertBitsEqual(t, typeName(m)+" loaded batch", batch[i], m.PredictProba(x))
		}
	}
}

// TestLoadRejectsMisalignedMember asserts Decode refuses, for every kind,
// what the arena compile cannot align or lay out, and what would panic at the
// first prediction: a member class outside the model's class list, a leaf
// whose distribution is not one value per class of its tree, a missing or
// single child, a split feature the node layout cannot hold, a chain count
// that does not match the classes.
func TestLoadRejectsMisalignedMember(t *testing.T) {
	train, _ := noisyBlobs(36, 3, 60)
	leftmost := func(n *treeNode) *treeNode {
		for !n.isLeaf() {
			n = n.Left
		}
		return n
	}
	forest := map[string]func(env *envelope, fp *forestPayload){
		"foreign class": func(_ *envelope, fp *forestPayload) { fp.TreeClasses[0] = []int{0, 1, 99} },
		"short leaf": func(_ *envelope, fp *forestPayload) {
			leaf := leftmost(fp.Trees[0].Root)
			leaf.Probs = leaf.Probs[:1]
		},
		"one-child node":        func(_ *envelope, fp *forestPayload) { fp.Trees[0].Root.Right = nil },
		"missing root":          func(_ *envelope, fp *forestPayload) { fp.Trees[1].Root = nil },
		"negative feature":      func(_ *envelope, fp *forestPayload) { fp.Trees[0].Root.Feature = -1 },
		"feature beyond layout": func(_ *envelope, fp *forestPayload) { fp.Trees[2].Root.Feature = arenaLeaf },
		"fewer class lists":     func(_ *envelope, fp *forestPayload) { fp.TreeClasses = fp.TreeClasses[:2] },
		"no classes":            func(env *envelope, _ *forestPayload) { env.Classes = nil },
	}
	for name, mutate := range forest {
		f := NewForest(ForestConfig{NumTrees: 3, Seed: 1})
		if err := f.Fit(train); err != nil {
			t.Fatal(err)
		}
		if _, err := load(bytes.NewReader(mutated(t, f, mutate))); err == nil {
			t.Errorf("forest, %s: corrupt model accepted", name)
		}
	}
	chains := map[string]func(env *envelope, gp *boostedPayload){
		"one-child node":        func(_ *envelope, gp *boostedPayload) { gp.Boosters[0].Trees[0].Left = nil },
		"missing tree":          func(_ *envelope, gp *boostedPayload) { gp.Boosters[1].Trees[2] = nil },
		"missing chain":         func(_ *envelope, gp *boostedPayload) { gp.Boosters[2] = nil },
		"leaf with probs":       func(_ *envelope, gp *boostedPayload) { leftmost(gp.Boosters[0].Trees[0]).Probs = []float64{1} },
		"feature beyond layout": func(_ *envelope, gp *boostedPayload) { gp.Boosters[0].Trees[0].Feature = 1 << 20 },
		"extra chain":           func(_ *envelope, gp *boostedPayload) { gp.Boosters = append(gp.Boosters, gp.Boosters[0]) },
		"two classes":           func(env *envelope, _ *boostedPayload) { env.Classes = env.Classes[:2] },
	}
	for name, mutate := range chains {
		for _, m := range []Classifier{NewGBDT(GBDTConfig{Rounds: 3, Seed: 1}), NewHistGBDT(HistGBDTConfig{Rounds: 3, Seed: 1})} {
			if err := m.Fit(train); err != nil {
				t.Fatal(err)
			}
			if _, err := load(bytes.NewReader(mutated(t, m, mutate))); err == nil {
				t.Errorf("%s, %s: corrupt model accepted", typeName(m), name)
			}
		}
	}

	// The bug this validator was extended for: "f":0 rewritten to "f":99 in a
	// saved 6-feature forest used to load, and panic at the first prediction.
	f := NewForest(ForestConfig{NumTrees: 3, Seed: 1})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	wide, err := load(bytes.NewReader(mutated(t, f, func(_ *envelope, fp *forestPayload) { fp.Trees[0].Root.Feature = 99 })))
	if err != nil {
		t.Fatalf("a split on feature 99 is within the layout: %v", err)
	}
	if got := SizeOf(wide).Features; got != 100 {
		t.Fatalf("SizeOf(...).Features = %d, want 100: callers refuse the model by it", got)
	}
}

// mutated saves m, decodes the file into its pointer form P, lets mutate
// corrupt it and returns the file re-encoded.
func mutated[P any](t *testing.T, m Classifier, mutate func(*envelope, *P)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	var env envelope
	var payload P
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(env.Payload, &payload); err != nil {
		t.Fatal(err)
	}
	mutate(&env, &payload)
	return marshalModel(t, env.Kind, env.Classes, payload)
}

// TestPredictBatchMatchesSingle asserts PredictBatchInto and PredictBatch
// return exactly the per-row PredictProba results for every classifier (on a
// batch large enough to be tiled into row blocks), that a session-sized
// PredictBatchInto and a one-tile one on 80 trees allocate nothing, and that
// PredictLabels matches Predict.
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
	// One tile runs on the caller, even where its rows × trees would fan out.
	f := NewForest(ForestConfig{NumTrees: 80, Seed: 34})
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	into := make([]float64, tileRows*3)
	if tileRows*f.NumTrees() < minParallelPredictWork {
		t.Fatalf("a tile on %d trees is not worth a fan-out", f.NumTrees())
	}
	if allocs := testing.AllocsPerRun(20, func() { f.PredictBatchInto(into, X[:tileRows]) }); allocs != 0 {
		t.Fatalf("a one-tile PredictBatchInto on %d trees allocates %v times", f.NumTrees(), allocs)
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
