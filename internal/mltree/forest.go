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
			g = newGrower(cd, f.Config.Tree)
			growers[worker] = g
		}
		clear(g.mult)
		for range n {
			g.mult[cd.row(rngs[t].Intn(n))]++
		}
		grown[t], f.members[t] = g.fit(rngs[t]), member{f.Config.Tree, f.classes}
	})
	var err error
	f.arena, err = compileArena(grown, len(f.classes), nil)
	return err
}

// votesCoded adds to votes[i*width:], for each of n samples, the leaf rows of
// every tree, in tree order: the forest's sums. Sample i is row rows[i] of cm
// (row i when rows is nil).
//
// A sample's rank on a feature is looked up by its code in a table built from
// one merge of the feature's distinct values with its thresholds, where a
// float matrix costs a binary search per cell. Tiles of samples are walked in
// parallel; a sample's votes add up in tree order within its tile, so the
// sums are those of any other tiling, and of one sample at a time.
func (a *arena) votesCoded(votes []float64, cm *codedMatrix, rows []int32, n int, parallelism int) {
	distinct := 0
	for f, t := range a.thr {
		if len(t) > 0 {
			distinct += len(cm.vals[f])
		}
	}
	backing, tables := make([]uint16, distinct), make([][]uint16, len(a.thr))
	for f, t := range a.thr {
		if len(t) == 0 {
			continue // no tree splits on it: no node reads its ranks
		}
		tables[f], backing = backing[:len(cm.vals[f])], backing[len(cm.vals[f]):]
		r := 0
		for c, v := range cm.vals[f] {
			for r < len(t) && t[r] < v {
				r++
			}
			tables[f][c] = uint16(r)
		}
	}
	runWorkers((n+tileRows-1)/tileRows, parallelism, func(_, w int) {
		var buf [rankScratch]uint16
		var at [tileRows]uint32
		var row [tileRows]int32
		ranks := a.tile(buf[:])
		lo := w * tileRows
		m := min(tileRows, n-lo)
		for i := range row[:m] {
			if row[i] = int32(lo + i); rows != nil {
				row[i] = rows[lo+i]
			}
		}
		for f, table := range tables {
			if table == nil {
				continue
			}
			codes, out := cm.codes[f], ranks[f*tileRows:]
			for i, r := range row[:m] {
				out[i] = table[codes[r]]
			}
		}
		for _, root := range a.roots {
			a.descend(root, ranks, m, &at)
			for i := range m {
				sum := votes[(lo+i)*a.width : (lo+i+1)*a.width]
				for c, p := range a.leaf[at[i] : int(at[i])+a.width] {
					sum[c] += p
				}
			}
		}
	})
}

// PredictDatasetInto is model.PredictBatchInto(dst, ds.Features), bit for bit.
// For a forest and a dataset already in coded form (one a Tree or Forest was
// fitted on, or a view of one: a held-out fold) it reads the codes instead of
// searching the threshold tables for every value.
func PredictDatasetInto(dst []float64, model Classifier, ds *Dataset) {
	if f, ok := model.(*Forest); ok && f.NumTrees() > 0 && len(f.arena.thr) <= ds.NumFeatures() {
		src, rows := ds.source()
		if cm := src.codesIfBuilt(); cm != nil {
			dst = dst[:ds.NumSamples()*len(f.classes)]
			clear(dst)
			f.arena.votesCoded(dst, cm, rows, ds.NumSamples(), defaultParallelism(f.Config.Parallelism))
			inv := 1 / float64(f.NumTrees())
			for i := range dst {
				dst[i] *= inv
			}
			return
		}
	}
	model.PredictBatchInto(dst, ds.Features)
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
