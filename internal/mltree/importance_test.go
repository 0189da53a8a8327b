package mltree

import (
	"math"
	"testing"

	"cordial/internal/xrand"
)

// signalNoise builds a binary task where only feature 0 carries signal and
// features 1..dim-1 are pure noise.
func signalNoise(seed uint64, n, dim int) *Dataset {
	r := xrand.New(seed)
	ds := &Dataset{Names: make([]string, dim)}
	for j := 0; j < dim; j++ {
		ds.Names[j] = "f" + string(rune('0'+j))
	}
	for i := 0; i < n; i++ {
		label := i % 2
		row := make([]float64, dim)
		row[0] = float64(label)*4 + r.Normal(0, 1)
		for j := 1; j < dim; j++ {
			row[j] = r.Normal(0, 1)
		}
		ds.Features = append(ds.Features, row)
		ds.Labels = append(ds.Labels, label)
	}
	return ds
}

func TestSplitImportanceFindsSignalFeature(t *testing.T) {
	ds := signalNoise(1, 400, 5)
	for _, model := range []Classifier{
		newTree(TreeConfig{MaxDepth: 6}, nil),
		NewForest(ForestConfig{NumTrees: 20, Seed: 1}),
		NewGBDT(GBDTConfig{Rounds: 20, Seed: 1}),
		NewHistGBDT(HistGBDTConfig{Rounds: 20, Seed: 1}),
	} {
		if err := model.Fit(ds); err != nil {
			t.Fatalf("%T: %v", model, err)
		}
		imps, err := SplitImportance(model, ds.Names)
		if err != nil {
			t.Fatalf("%T: %v", model, err)
		}
		if imps[0].Feature != 0 {
			t.Errorf("%T: top feature = %d (%s), want 0", model, imps[0].Feature, imps[0].Name)
		}
		total := 0.0
		for _, imp := range imps {
			if imp.Score < 0 {
				t.Errorf("%T: negative importance %g", model, imp.Score)
			}
			total += imp.Score
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%T: importances sum to %g", model, total)
		}
	}
}

func TestSplitImportanceLeafOnlyModel(t *testing.T) {
	ds := &Dataset{Features: [][]float64{{1}, {1}}, Labels: []int{0, 0}}
	tree := newTree(TreeConfig{}, nil)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := SplitImportance(tree, nil); err == nil {
		t.Fatal("splitless model accepted")
	}
}
