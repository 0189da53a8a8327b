package mltree

import (
	"runtime"

	"cordial/internal/xrand"
)

// ForestConfig configures a Random Forest classifier. Each member grows on a
// bootstrap bag as large as the training set.
type ForestConfig struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// Tree configures each member; MaxFeatures defaults to sqrt when 0.
	Tree TreeConfig
	// Parallelism is the number of goroutines fitting member trees;
	// <=0 means runtime.GOMAXPROCS(0). Results are deterministic
	// regardless of the value: every member's RNG is derived up front and
	// trees land at their index. A model file does not record it: a loaded
	// model predicts on the loading process's cores.
	Parallelism int `json:"-"`
	// Seed drives bootstrapping and feature subsampling.
	Seed uint64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.Tree.MaxFeatures == 0 {
		c.Tree.MaxFeatures = -1 // sqrt
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// Forest is a Random Forest classifier: bootstrap-aggregated CART trees with
// per-split feature subsampling, predictions averaged over members.
type Forest struct {
	Config ForestConfig
	// arena is every member's tree, leaf rows aligned to classes.
	arena   *arena
	classes []int
	// members is what Save writes of each member beside its tree.
	members []member
}

// member is a forest member's configuration and its own class list (a model
// file may hold members whose bags missed classes).
type member struct {
	config  TreeConfig
	classes []int
}

// NewForest returns an unfitted Random Forest.
func NewForest(cfg ForestConfig) *Forest {
	return &Forest{Config: cfg.withDefaults()}
}

var _ Classifier = (*Forest)(nil)

// Classes returns the labels seen during Fit.
func (f *Forest) Classes() []int { return f.classes }

// NumTrees returns the number of fitted members.
func (f *Forest) NumTrees() int { return f.arena.numTrees() }

// Fit trains the ensemble.
func (f *Forest) Fit(ds *Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	f.classes = ds.Classes()
	n := ds.NumSamples()
	rng := xrand.New(f.Config.Seed)

	// Shared read-only training state: labels and the dataset's value codes
	// (see grower.go). A member's bootstrap bag is a multiset of the samples,
	// held as a multiplicity per row of the coded matrix.
	cd := newClassData(ds, f.classes)

	// Derive every member's RNG up front so fitting order cannot change
	// the result, then fan the members out over the shared worker pool,
	// each worker growing its members with one reused grower.
	rngs := make([]*xrand.RNG, f.Config.NumTrees)
	for t := range rngs {
		rngs[t] = rng.Split()
	}
	grown := make([]grownTree, f.Config.NumTrees)
	f.members = make([]member, f.Config.NumTrees)
	growers := make([]*grower, maxExtraWorkers+1)
	runWorkers(f.Config.NumTrees, f.Config.Parallelism, func(worker, t int) {
		g := growers[worker]
		if g == nil {
			g = cd.growerFor(f.Config.Tree)
			growers[worker] = g
		}
		clear(g.mult)
		for range n {
			g.mult[cd.row(rngs[t].Intn(n))]++
		}
		grown[t], f.members[t] = g.fit(rngs[t]), member{f.Config.Tree, f.classes}
	})
	cd.release(growers)
	var err error
	f.arena, err = compileArena(grown, len(f.classes), nil)
	return err
}

// PredictDatasetInto is model.PredictBatchInto(dst, ds.Features), bit for bit.
// A dataset without Features is predicted a tile of rows at a time, each
// tile's rows made from the codes.
func PredictDatasetInto(dst []float64, model Classifier, ds *Dataset) {
	cm := ds.coderCodes()
	if cm == nil {
		model.PredictBatchInto(dst, ds.Features)
		return
	}
	n, k := ds.NumSamples(), len(model.Classes())
	X := newRows(min(n, tileRows), len(cm.codes))
	for lo := 0; lo < n; lo += tileRows {
		tile := X[:min(tileRows, n-lo)]
		ds.rowsInto(tile, lo, cm)
		model.PredictBatchInto(dst[lo*k:], tile)
	}
}

// PredictProba averages the member trees' leaf distributions.
func (f *Forest) PredictProba(x []float64) []float64 {
	out := make([]float64, len(f.classes))
	f.arena.predictBlock(out, [][]float64{x})
	return out
}

// PredictBatchInto predicts every row of X into dst; a forest without trees
// predicts all zeros.
func (f *Forest) PredictBatchInto(dst []float64, X [][]float64) {
	predictBatchInto(f.arena, len(f.classes), f.NumTrees(), f.Config.Parallelism, dst, X)
}

// PredictBatch predicts every row of X.
func (f *Forest) PredictBatch(X [][]float64) [][]float64 { return predictBatch(f, X) }
