package mltree

import (
	"fmt"
	"sort"
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
