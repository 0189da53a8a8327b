package mltree

import (
	"runtime"

	"cordial/internal/xrand"
)

// ForestConfig configures a Random Forest classifier.
type ForestConfig struct {
	// NumTrees is the ensemble size (default 100).
	NumTrees int
	// Tree configures each member; MaxFeatures defaults to sqrt when 0.
	Tree TreeConfig
	// BootstrapRatio is the bootstrap sample size as a fraction of the
	// training set (default 1.0).
	BootstrapRatio float64
	// Parallelism is the number of goroutines fitting member trees;
	// <=0 means runtime.GOMAXPROCS(0). Results are deterministic
	// regardless of the value: every member's RNG is derived up front and
	// trees land at their index.
	Parallelism int
	// Seed drives bootstrapping and feature subsampling.
	Seed uint64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.BootstrapRatio <= 0 {
		c.BootstrapRatio = 1
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
	// oobScore is the out-of-bag accuracy estimated during Fit, or -1.
	oobScore float64
}

// member is a forest member's configuration and its own class list (a model
// file may hold members whose bags missed classes).
type member struct {
	config  TreeConfig
	classes []int
}

// NewForest returns an unfitted Random Forest.
func NewForest(cfg ForestConfig) *Forest {
	return &Forest{Config: cfg.withDefaults(), oobScore: -1}
}

var _ Classifier = (*Forest)(nil)

// Classes returns the labels seen during Fit.
func (f *Forest) Classes() []int { return f.classes }

// NumTrees returns the number of fitted members.
func (f *Forest) NumTrees() int { return f.arena.numTrees() }

// OOBScore returns the out-of-bag accuracy estimate from Fit, or -1 when it
// could not be computed (e.g. every sample was in every bag).
func (f *Forest) OOBScore() float64 { return f.oobScore }

// Fit trains the ensemble.
func (f *Forest) Fit(ds *Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	f.classes = ds.Classes()
	n, k := ds.NumSamples(), len(f.classes)
	bag := max(1, int(float64(n)*f.Config.BootstrapRatio))
	rng := xrand.New(f.Config.Seed)

	// Shared read-only training state: labels and value codes from one
	// presort of the full training set (see grower.go). A member's bootstrap
	// bag is a multiset of these rows, held as a multiplicity per row.
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
	inBag := make([]bool, f.Config.NumTrees*n) // member-major
	cfg := f.Config.Tree.withDefaults()
	growers := make([]*grower, maxExtraWorkers+1)
	runWorkers(f.Config.NumTrees, f.Config.Parallelism, func(worker, t int) {
		g := growers[worker]
		if g == nil {
			g = newGrower(cd, cfg)
			growers[worker] = g
		}
		clear(g.mult)
		in := inBag[t*n : (t+1)*n]
		for j := 0; j < bag; j++ {
			s := rngs[t].Intn(n)
			g.mult[s]++
			in[s] = true
		}
		grown[t], f.members[t] = g.fit(rngs[t]), member{cfg, f.classes}
	})
	var err error
	if f.arena, err = compileArena(grown, k, nil); err != nil {
		return err
	}

	// Out-of-bag votes: votes[i*k+c] sums, in member order, the class-c
	// probability from the trees whose bag excluded sample i.
	votes := make([]float64, n*k)
	oobSeen := make([]bool, n)
	var buf [rankScratch]uint16
	ranks := f.arena.tile(buf[:])
	for lo := 0; lo < n; lo += tileRows {
		rows := ds.Features[lo:min(lo+tileRows, n)]
		f.arena.rank(ranks, rows)
		for t, root := range f.arena.roots {
			for i, in := range inBag[t*n+lo : t*n+lo+len(rows)] {
				if in {
					continue
				}
				oobSeen[lo+i] = true
				off := int(f.arena.leafOf(root, ranks, i))
				for c, p := range f.arena.leaf[off : off+k] {
					votes[(lo+i)*k+c] += p
				}
			}
		}
	}

	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		if !oobSeen[i] {
			continue
		}
		counted++
		if argmaxLabel(f.classes, votes[i*k:(i+1)*k]) == ds.Labels[i] {
			correct++
		}
	}
	f.oobScore = -1
	if counted > 0 {
		f.oobScore = float64(correct) / float64(counted)
	}
	return nil
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
