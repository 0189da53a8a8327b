package mltree

import (
	"fmt"
	"sort"

	"cordial/internal/xrand"
)

// Importance is one feature's importance score.
type Importance struct {
	Feature int
	Name    string
	Score   float64
}

// sortImportances orders scores descending, breaking ties by feature index.
func sortImportances(imps []Importance) {
	sort.Slice(imps, func(i, j int) bool {
		if imps[i].Score != imps[j].Score {
			return imps[i].Score > imps[j].Score
		}
		return imps[i].Feature < imps[j].Feature
	})
}

// splitCounts visits the tree at node i and counts split occurrences per
// feature, weighted by the subtree's share of the root (an approximation of
// split-gain importance that needs no stored gain values).
func (a *arena) splitCounts(i uint32, counts map[int]float64, weight float64) {
	n := a.nodes[i]
	if n.isLeaf() {
		return
	}
	counts[int(n.feature())] += weight
	a.splitCounts(n.children(), counts, weight/2)
	a.splitCounts(n.children()+1, counts, weight/2)
}

// SplitImportance returns per-feature importance for a fitted model, based
// on depth-weighted split frequency: splits near the root matter more.
// Scores are normalised to sum to 1. names may be nil.
func SplitImportance(model Classifier, names []string) ([]Importance, error) {
	a, ok := arenaOf(model)
	if !ok {
		return nil, fmt.Errorf("mltree: cannot compute importance for %T", model)
	}
	counts := make(map[int]float64)
	for t := 0; t < a.numTrees(); t++ {
		a.splitCounts(a.roots[t], counts, 1)
	}
	total := 0.0
	for _, v := range counts {
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("mltree: model has no splits")
	}
	out := make([]Importance, 0, len(counts))
	for f, v := range counts {
		imp := Importance{Feature: f, Score: v / total}
		if names != nil && f < len(names) {
			imp.Name = names[f]
		}
		out = append(out, imp)
	}
	sortImportances(out)
	return out, nil
}

// PermutationImportance measures each feature's contribution as the drop in
// accuracy on ds when that feature's column is randomly permuted (breaking
// its relationship with the label). Features the model ignores score ~0.
// It runs rounds permutations per feature and averages.
func PermutationImportance(model Classifier, ds *Dataset, rounds int, rng *xrand.RNG) ([]Importance, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if rounds <= 0 {
		rounds = 3
	}
	if rng == nil {
		return nil, fmt.Errorf("mltree: nil RNG")
	}
	base := datasetAccuracy(model, ds)
	n := ds.NumSamples()
	numFeatures := ds.NumFeatures()

	// Work on a mutable copy of the feature matrix.
	work := make([][]float64, n)
	for i, row := range ds.Features {
		work[i] = append([]float64(nil), row...)
	}
	probe := &Dataset{Features: work, Labels: ds.Labels, Names: ds.Names}

	out := make([]Importance, 0, numFeatures)
	saved := make([]float64, n)
	for f := 0; f < numFeatures; f++ {
		for i := range work {
			saved[i] = work[i][f]
		}
		drop := 0.0
		for r := 0; r < rounds; r++ {
			perm := rng.Perm(n)
			for i := range work {
				work[i][f] = saved[perm[i]]
			}
			drop += base - datasetAccuracy(model, probe)
		}
		for i := range work {
			work[i][f] = saved[i]
		}
		imp := Importance{Feature: f, Score: drop / float64(rounds)}
		if ds.Names != nil {
			imp.Name = ds.Names[f]
		}
		out = append(out, imp)
	}
	sortImportances(out)
	return out, nil
}

func datasetAccuracy(model Classifier, ds *Dataset) float64 {
	correct := 0
	for i, x := range ds.Features {
		if Predict(model, x) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.NumSamples())
}
