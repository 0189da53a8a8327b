package mltree

import (
	"bufio"
	"bytes"
	"crypto/sha256"
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
	return comb(feature, thresholds, func(i int) []float64 { return []float64{float64(i)} })
}

// comb is combTree with leaf i's row leaf(i).
func comb(feature int, thresholds []float64, leaf func(i int) []float64) grownTree {
	b := newBuilder(len(leaf(0)))
	b.reset()
	at := 0
	for i, thr := range thresholds {
		c := b.split(at, feature, thr)
		copy(b.row, bitsOf(leaf(i)))
		b.leafAt(c)
		at = c + 1
	}
	copy(b.row, bitsOf(leaf(len(thresholds))))
	b.leafAt(at)
	return b.tree()
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
// commit wrote, both normalised — but GBDT, whose per-code gradient sums add
// in another order since it grows on the coded matrix, and whose refit is held
// to the SHA-256 of its normalised file at that change; each of the parent's
// files loads to the parent's predictions, bit for bit, and saves back to
// itself normalised.
func TestParentFixture(t *testing.T) {
	const gbdtRefit = "9c71aac49a9b2d4699456893f040c4264139cfea09e22fa85ab05bf4a5827c39"
	files, probs := parentFixture(t)
	models, X := fixtureModels(t)
	for i, m := range models {
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(*GBDT); ok {
			if sum := sha256.Sum256(normalised(t, buf.Bytes())); fmt.Sprintf("%x", sum) != gbdtRefit {
				t.Errorf("GBDT: fitted here, Save writes a file of SHA-256 %x normalised, want %s", sum, gbdtRefit)
			}
		} else if !bytes.Equal(normalised(t, buf.Bytes()), normalised(t, files[i])) {
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

// TestArenaLeafRowsInterned holds compileArena to one copy of each leaf row.
// On a fitted default forest, a shallow one (whose leaves mix classes) and a
// boosted model no two rows of leaf have the same bits, every leaf points at the start of a row, and leaf has no slack.
// Rows that differ only in the sign of a zero stay apart, so that a model
// file saves back to the bytes it was loaded from.
func TestArenaLeafRowsInterned(t *testing.T) {
	train, _ := noisyBlobs(33, 3, 120)
	for _, m := range []Classifier{NewForest(ForestConfig{Seed: 7}), NewForest(ForestConfig{Seed: 7, Tree: TreeConfig{MaxDepth: 4}}), NewGBDT(GBDTConfig{Seed: 7})} {
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		a, _ := arenaOf(m)
		leaves := assertLeafRowsInterned(t, typeName(m), a)
		t.Logf("%s: %d leaves, %d distinct rows of %d", typeName(m), leaves, len(a.leaf)/a.width, a.width)
		if _, ok := m.(*Forest); ok && leaves <= len(a.leaf)/a.width {
			t.Fatalf("forest: %d leaves share no row: the test shows nothing", leaves)
		}
	}

	// Sixteen leaves whose rows differ only in the signs of their zeros: rows
	// that share a probe sequence are compared, and must stay apart.
	negZero := math.Copysign(0, -1)
	signRow := func(i int) []float64 {
		row := make([]float64, 4)
		for b := range row {
			if i>>b&1 == 1 {
				row[b] = negZero
			}
		}
		return row
	}
	signs := comb(0, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, signRow)
	a, err := compileArena([]grownTree{signs}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertLeafRowsInterned(t, "±0 rows", a)
	for i, x := range []float64{-1, 0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5, 10.5, 11.5, 12.5, 13.5, 15} {
		var ranks [rankScratch]uint16
		a.rank(ranks[:], [][]float64{{x}})
		off := a.leafOf(a.roots[0], ranks[:], 0)
		if got, want := bitsOf(a.leaf[off:off+4]), bitsOf(signRow(i)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("leaf %d reads row %x, want %x", i, got, want)
		}
	}

	// A tree whose two leaves differ in the sign of a zero probability. (A
	// boosted model's zero leaf value is left out of its file, whatever its
	// sign.)
	file := `{"kind":"tree","classes":[0,1],"payload":{"config":{"MaxDepth":2,"MaxFeatures":0},"root":{"f":0,"t":1.5,"l":{"f":0,"t":0,"p":[-0,1]},"r":{"f":0,"t":0,"p":[0,1]}}}}` + "\n"
	m, err := load(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	a, _ = arenaOf(m)
	assertLeafRowsInterned(t, "−0/+0 tree", a)
	if rows := len(a.leaf) / a.width; rows != 2 {
		t.Fatalf("leaves −0 and +0 compiled to %d rows, want 2", rows)
	}
	var out bytes.Buffer
	if err := Save(&out, m); err != nil || out.String() != file {
		t.Fatalf("saved %q (err %v), loaded %q", out.String(), err, file)
	}
}

// assertLeafRowsInterned asserts a's leaf rows are pairwise distinct in their
// bits, exactly allocated and each the target of a leaf node, which starts at
// a row, and returns the number of leaves.
func assertLeafRowsInterned(t *testing.T, label string, a *arena) int {
	t.Helper()
	if cap(a.leaf) != len(a.leaf) || len(a.leaf)%a.width != 0 {
		t.Fatalf("%s: leaf has length %d and capacity %d, rows of %d", label, len(a.leaf), cap(a.leaf), a.width)
	}
	seen := map[string]int{}
	for off := 0; off < len(a.leaf); off += a.width {
		key := fmt.Sprint(bitsOf(a.leaf[off : off+a.width]))
		if prev, ok := seen[key]; ok {
			t.Fatalf("%s: leaf rows at %d and %d are the same bits %v", label, prev, off, a.leaf[off:off+a.width])
		}
		seen[key] = off
	}
	leaves, used := 0, map[uint32]bool{}
	for _, n := range a.nodes {
		if !n.isLeaf() {
			continue
		}
		leaves++
		if off := n.children(); int(off)%a.width != 0 || int(off)+a.width > len(a.leaf) {
			t.Fatalf("%s: a leaf points at offset %d of %d values, rows of %d", label, off, len(a.leaf), a.width)
		} else {
			used[off] = true
		}
	}
	if len(used) != len(seen) {
		t.Fatalf("%s: leaves point at %d of %d rows", label, len(used), len(seen))
	}
	return leaves
}

func bitsOf(row []float64) []uint64 {
	b := make([]uint64, len(row))
	for i, v := range row {
		b[i] = math.Float64bits(v)
	}
	return b
}
