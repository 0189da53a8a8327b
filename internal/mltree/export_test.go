package mltree

// WindowWalk describes how a fitted model walks the rows of one prediction
// window, for TestSharedPrefixShare (an external test: it fits the serving
// forest through core, which imports this package).
type WindowWalk struct {
	Steps    int // split nodes visited, summed over rows and trees
	Shared   int // of them, those above the row's first split on a column that varies across the window
	Distinct int // distinct split nodes visited by any row
	Varying  int // columns that vary across the window's rows
}

// WalkWindow walks every row of X (at most a tile) down every tree of model.
func WalkWindow(model Classifier, X [][]float64) WindowWalk {
	a, _ := arenaOf(model)
	var w WindowWalk
	varying := make([]bool, len(X[0]))
	for f := range varying {
		for _, x := range X[1:] {
			varying[f] = varying[f] || x[f] != X[0][f]
		}
		if varying[f] {
			w.Varying++
		}
	}
	ranks := make([]uint16, len(a.thr)*tileRows)
	a.rank(ranks, X)
	seen := make(map[uint32]bool)
	for _, root := range a.roots {
		for i := range X {
			shared := true
			for at := root; !a.nodes[at].isLeaf(); at = a.nodes[at].step(ranks, i) {
				w.Steps++
				seen[at] = true
				if shared = shared && !varying[a.nodes[at].feature()]; shared {
					w.Shared++
				}
			}
		}
	}
	w.Distinct = len(seen)
	return w
}
