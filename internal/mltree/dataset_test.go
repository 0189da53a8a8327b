package mltree

import (
	"math"
	"testing"

	"cordial/internal/xrand"
)

// blobs generates k gaussian clusters in dim dimensions, n samples per
// class, cluster centres spaced far enough to be separable at sep ≫ spread.
func blobs(seed uint64, k, n, dim int, sep, spread float64) *Dataset {
	r := xrand.New(seed)
	ds := &Dataset{}
	for c := 0; c < k; c++ {
		centre := make([]float64, dim)
		for d := range centre {
			// Deterministic centres on a lattice direction per class.
			centre[d] = sep * float64((c+d)%k)
		}
		for i := 0; i < n; i++ {
			row := make([]float64, dim)
			for d := range row {
				row[d] = centre[d] + r.Normal(0, spread)
			}
			ds.Features = append(ds.Features, row)
			ds.Labels = append(ds.Labels, c+10) // non-contiguous labels on purpose
		}
	}
	return ds
}

// accuracy evaluates a fitted classifier on a dataset.
func accuracy(c Classifier, ds *Dataset) float64 {
	correct := 0
	for i, x := range ds.Features {
		if Predict(c, x) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.NumSamples())
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{Features: [][]float64{{1, 2}, {3, 4}}, Labels: []int{0, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		ds   *Dataset
	}{
		{"empty", &Dataset{}},
		{"label mismatch", &Dataset{Features: [][]float64{{1}}, Labels: []int{0, 1}}},
		{"ragged", &Dataset{Features: [][]float64{{1, 2}, {3}}, Labels: []int{0, 1}}},
		{"no features", &Dataset{Features: [][]float64{{}}, Labels: []int{0}}},
		{"NaN", &Dataset{Features: [][]float64{{math.NaN()}}, Labels: []int{0}}},
		{"Inf", &Dataset{Features: [][]float64{{math.Inf(1)}}, Labels: []int{0}}},
		{"bad names", &Dataset{Features: [][]float64{{1, 2}}, Labels: []int{0}, Names: []string{"a"}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.ds.Validate(); err == nil {
				t.Fatal("invalid dataset accepted")
			}
		})
	}
}

func TestDatasetClasses(t *testing.T) {
	ds := &Dataset{Features: [][]float64{{1}, {2}, {3}}, Labels: []int{5, 3, 5}}
	got := ds.Classes()
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Classes = %v", got)
	}
}

func TestSubsetWithRepeats(t *testing.T) {
	ds := &Dataset{Features: [][]float64{{1}, {2}, {3}}, Labels: []int{0, 1, 2}}
	sub := ds.Subset([]int{2, 2, 0})
	if sub.NumSamples() != 3 || sub.Labels[0] != 2 || sub.Labels[1] != 2 || sub.Labels[2] != 0 {
		t.Fatalf("Subset = %+v", sub)
	}
}

func TestStratifiedSplitPreservesProportions(t *testing.T) {
	// Imbalanced: 200 of class 10, 20 of class 11.
	ds := blobs(3, 1, 200, 2, 10, 1)
	minority := blobs(4, 1, 20, 2, 10, 1)
	for i := range minority.Features {
		ds.Features = append(ds.Features, minority.Features[i])
		ds.Labels = append(ds.Labels, 11)
	}
	train, test, err := ds.StratifiedSplit(xrand.New(5), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	count := func(d *Dataset, label int) int {
		n := 0
		for _, l := range d.Labels {
			if l == label {
				n++
			}
		}
		return n
	}
	if got := count(train, 11); got != 14 {
		t.Errorf("train minority = %d, want 14", got)
	}
	if got := count(test, 11); got != 6 {
		t.Errorf("test minority = %d, want 6", got)
	}
	if train.NumSamples()+test.NumSamples() != ds.NumSamples() {
		t.Error("stratified split lost samples")
	}
}

func TestStratifiedSplitSingletonClassGoesToTrain(t *testing.T) {
	ds := &Dataset{
		Features: [][]float64{{1}, {2}, {3}, {4}, {5}},
		Labels:   []int{0, 0, 0, 0, 7},
	}
	train, test, err := ds.StratifiedSplit(xrand.New(1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range train.Labels {
		if l == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("singleton class not in training set")
	}
	for _, l := range test.Labels {
		if l == 7 {
			t.Fatal("singleton class leaked to test set")
		}
	}
}

func TestPredictTieBreaksTowardSmallerLabel(t *testing.T) {
	// A stump that returns uniform probabilities.
	tree := newTree(TreeConfig{MaxDepth: 1}, nil)
	ds := &Dataset{
		Features: [][]float64{{0}, {0}},
		Labels:   []int{1, 2},
	}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if got := Predict(tree, []float64{0}); got != 1 {
		t.Fatalf("tie broke to %d, want 1", got)
	}
}
