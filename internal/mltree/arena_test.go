package mltree

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// combTree is a right-leaning comb over one feature: split i sends
// x <= thresholds[i] to leaf i and everything else on to split i+1, the last
// to leaf len(thresholds). Leaf i's payload is i.
func combTree(feature int, thresholds []float64) grownTree {
	var gt grownTree
	for i, thr := range thresholds {
		gt.nodes = append(gt.nodes,
			grownNode{feature: int32(feature), threshold: thr, at: int32(2*i + 2)},
			grownNode{feature: -1, at: int32(i)})
		gt.leaf = append(gt.leaf, float64(i))
	}
	gt.nodes = append(gt.nodes, grownNode{feature: -1, at: int32(len(thresholds))})
	gt.leaf = append(gt.leaf, float64(len(thresholds)))
	return gt
}

// TestRankKernelExactness holds the rank comparison to the float comparison
// on every value where the two could part: trees whose thresholds are −Inf,
// −1, −0, +0, 1 and +Inf — in table order, in reverse, and shared between
// trees of one arena — against NaN, ±Inf, ±0, each threshold, each
// threshold's float neighbours, and values beyond both ends.
func TestRankKernelExactness(t *testing.T) {
	negZero := math.Copysign(0, -1)
	thresholds := []float64{math.Inf(-1), -1, negZero, 0, 1, math.Inf(1)}
	reversed := []float64{math.Inf(1), 1, 0, negZero, -1, math.Inf(-1)}
	// −0 next to +0 and NaN next to NaN: a row repeating the row before's value
	// takes its rank without a search.
	inputs := []float64{0, negZero, 0, math.NaN(), math.NaN(), -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0.5, -7}
	for _, thr := range thresholds {
		inputs = append(inputs, thr, math.Nextafter(thr, math.Inf(-1)), math.Nextafter(thr, math.Inf(1)))
	}
	members := []grownTree{combTree(0, thresholds), combTree(1, reversed), combTree(1, thresholds[1:5]), combTree(0, []float64{1, -1})}
	var X [][]float64
	for _, u := range inputs {
		for _, v := range inputs {
			X = append(X, []float64{u, v})
		}
	}
	for _, set := range [][]grownTree{members[:1], members[1:2], members} {
		a, err := compileArena(set, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, len(X))
		a.predictBlock(got, X)
		for i, x := range X {
			want := 0.0
			for _, m := range set {
				want += pointerOf(m, 1).navigate(x).Probs[0]
			}
			want *= 1 / float64(len(set))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%d trees, row %v: arena predicts %v, the pointer walk %v", len(set), x, got[i], want)
			}
		}
		// The tables keep −0 and +0 apart, so Save writes each threshold with
		// the sign it was given.
		for m, root := range a.roots {
			assertSameTree(t, fmt.Sprintf("%d trees, member %d: node ", len(set), m), a.pointerTree(root, []int{0}), pointerOf(set[m], 1))
		}
	}
}

// TestArenaLimits asserts a model the node layout cannot hold is a compile
// error that names the limit: more distinct thresholds on a feature than a
// uint16 rank can tell apart, a feature index that would collide with the
// leaf mark, a NaN threshold.
func TestArenaLimits(t *testing.T) {
	many := make([]float64, arenaLeaf+1)
	for i := range many {
		many[i] = float64(i)
	}
	if _, err := compileArena([]grownTree{combTree(3, many[:arenaLeaf])}, 1, nil); err != nil {
		t.Fatalf("%d distinct thresholds fit: %v", arenaLeaf, err)
	}
	for name, gt := range map[string]grownTree{
		"65535 per feature": combTree(3, many),
		"below 65535":       combTree(arenaLeaf, many[:1]),
		"NaN":               combTree(0, []float64{1, math.NaN()}),
	} {
		if _, err := compileArena([]grownTree{gt}, 1, nil); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("compile error %v does not name the limit %q", err, name)
		}
	}
	if a, err := compileArena([]grownTree{combTree(arenaLeaf-1, many[:1])}, 1, nil); err != nil || len(a.thr) != arenaLeaf {
		t.Fatalf("feature %d fits: %v", arenaLeaf-1, err)
	}
}

// parentFixture reads testdata/parent_models.jsonl — Save's output for a
// tree, a forest, a GBDT, a HistGBDT and a forest with class-missing members
// (fixtureModels in this file), written at the commit before models compiled
// to an arena, when Save marshalled the trainers' own pointer trees — and
// parent_probs.json, the bits of what each predicted for fixtureRows.
func parentFixture(t testing.TB) (files [][]byte, probs [][]string) {
	t.Helper()
	f, err := os.Open("testdata/parent_models.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		files = append(files, append(bytes.Clone(sc.Bytes()), '\n'))
	}
	raw, err := os.ReadFile("testdata/parent_probs.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &probs); err != nil || len(probs) != len(files) {
		t.Fatalf("%d models, %d probability sets, err %v", len(files), len(probs), err)
	}
	return files, probs
}

// fixtureModels refits the fixture's first four models.
func fixtureModels(t *testing.T) ([]Classifier, [][]float64) {
	train, test := noisyBlobs(77, 3, 40)
	models := []Classifier{
		newTree(TreeConfig{MaxDepth: 5}, nil),
		NewForest(ForestConfig{NumTrees: 6, Tree: TreeConfig{MaxDepth: 6}, Seed: 77, Parallelism: 1}),
		NewGBDT(GBDTConfig{Rounds: 6, Seed: 77, Parallelism: 1}),
		NewHistGBDT(HistGBDTConfig{Rounds: 6, Seed: 77, Parallelism: 1}),
	}
	for _, m := range models {
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
	}
	return models, test.Features
}

// removedKeys are the keys the parent's files carry that Save no longer
// writes: the learner options that became constants, the forest's out-of-bag
// score, and the core count.
var removedKeys = map[string]bool{
	"MinSamplesSplit": true, "MinSamplesLeaf": true, "Criterion": true, "BootstrapRatio": true,
	"LearningRate": true, "Lambda": true, "Gamma": true, "MinChildWeight": true,
	"PositiveWeight": true, "EarlyStopRounds": true, "MaxBins": true, "TopRate": true,
	"OtherRate": true, "oob": true, "Parallelism": true,
}

// normalised re-encodes a model file with the removed keys deleted at any
// depth, numbers kept as written.
func normalised(t *testing.T, file []byte) []byte {
	t.Helper()
	var drop func(v any)
	drop = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				if removedKeys[k] {
					delete(v, k)
				} else {
					drop(c)
				}
			}
		case []any:
			for _, c := range v {
				drop(c)
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader(file))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	drop(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParentFixture asserts the arena, and the options that became constants,
// changed nothing a caller can see and nothing in a file but the keys no
// longer written: every kind, refitted here, saves to the file the parent
// commit wrote, both normalised; each of the parent's files loads to the
// parent's predictions, bit for bit, and saves back to itself normalised.
func TestParentFixture(t *testing.T) {
	files, probs := parentFixture(t)
	models, X := fixtureModels(t)
	for i, m := range models {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(normalised(t, buf.Bytes()), normalised(t, files[i])) {
			t.Errorf("%s: fitted here, Save writes a file that differs from the parent's", typeName(m))
		}
	}
	for i, file := range files {
		m, err := load(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil || !bytes.Equal(normalised(t, buf.Bytes()), normalised(t, file)) {
			t.Errorf("model %d (%s): load→save changed the file (err %v)", i, typeName(m), err)
		}
		var got []float64
		for _, row := range m.PredictBatch(X) {
			got = append(got, row...)
		}
		if len(got) != len(probs[i]) {
			t.Fatalf("model %d: %d probabilities, the parent wrote %d", i, len(got), len(probs[i]))
		}
		for j, p := range got {
			if want, _ := strconv.ParseUint(probs[i][j], 16, 64); math.Float64bits(p) != want {
				t.Fatalf("model %d (%s): probability %d is %v, the parent predicted %v", i, typeName(m), j, p, math.Float64frombits(want))
			}
		}
	}
}

// load reads one model the way core reads a models file: through
// NewDecoderFromJSON over a json.Decoder.
func load(r io.Reader) (Classifier, error) {
	return NewDecoderFromJSON(json.NewDecoder(r)).Decode()
}

// FuzzLoadModel feeds Decode (through load, core's entry) arbitrary bytes,
// seeded with real files of all four kinds: it must refuse them or return a
// model that predicts a row as wide as SizeOf says it needs — a model file is operator input, and one that
// loads and then panics costs a serving daemon a quarantined bank per
// prediction.
func FuzzLoadModel(f *testing.F) {
	files, _ := parentFixture(f)
	for _, file := range files {
		f.Add(file)
	}
	f.Add([]byte(`{"kind":"gbdt","classes":[0,1],"payload":{"boosters":[{"trees":[{"f":2,"t":0.5,"l":{"v":1}}]}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := load(bytes.NewReader(data))
		if err != nil {
			return
		}
		row := make([]float64, SizeOf(m).Features)
		for i := range row {
			row[i] = float64(i%7) - 3
		}
		m.PredictBatchInto(make([]float64, 2*len(m.Classes())), [][]float64{row, make([]float64, len(row))})
	})
}
