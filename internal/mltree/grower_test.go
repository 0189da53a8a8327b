package mltree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cordial/internal/xrand"
)

// naiveCART is the executable specification of classification-tree growth:
// at every node, for every candidate feature, stably sort the node's bag rows
// (a multiset — bootstrap duplicates are rows of their own) by value and scan
// the boundaries between distinct values. No presort, no codes, no scratch.
type naiveCART struct {
	ds  *Dataset
	y   []int // class index by row
	k   int
	cfg TreeConfig
	rng *xrand.RNG
}

func (c *naiveCART) grow(rows []int, depth int) *treeNode {
	counts := make([]float64, c.k)
	for _, i := range rows {
		counts[c.y[i]]++
	}
	n := float64(len(rows))
	leaf := &treeNode{Probs: make([]float64, c.k)}
	for cl, v := range counts {
		leaf.Probs[cl] = v / n
	}
	if len(rows) < 2 || (c.cfg.MaxDepth > 0 && depth >= c.cfg.MaxDepth) || isPure(counts) {
		return leaf
	}
	d := c.ds.NumFeatures()
	var cands []int
	if maxFeat := c.cfg.resolveMaxFeatures(d); maxFeat >= d || c.rng == nil {
		for f := 0; f < d; f++ {
			cands = append(cands, f)
		}
	} else {
		cands = c.rng.SampleInts(d, maxFeat)
	}
	parentImp := gini(counts, n)
	bestGain, bestFeat, bestV, bestNext := minClassGain, -1, 0.0, 0.0
	for _, f := range cands {
		sorted := append([]int(nil), rows...)
		sort.SliceStable(sorted, func(a, b int) bool { return c.ds.Features[sorted[a]][f] < c.ds.Features[sorted[b]][f] })
		left, right := make([]float64, c.k), append([]float64(nil), counts...)
		for j := 0; j+1 < len(sorted); j++ {
			left[c.y[sorted[j]]]++
			right[c.y[sorted[j]]]--
			v, next := c.ds.Features[sorted[j]][f], c.ds.Features[sorted[j+1]][f]
			if v == next {
				continue
			}
			nl, nr := float64(j+1), n-float64(j+1)
			gain := parentImp - (nl*gini(left, nl)+nr*gini(right, nr))/n
			if gain > bestGain {
				bestGain, bestFeat, bestV, bestNext = gain, f, v, next
			}
		}
	}
	if bestFeat < 0 {
		return leaf
	}
	var l, r []int
	for _, i := range rows {
		if c.ds.Features[i][bestFeat] <= bestV {
			l = append(l, i)
		} else {
			r = append(r, i)
		}
	}
	return &treeNode{Feature: bestFeat, Threshold: (bestV + bestNext) / 2, Left: c.grow(l, depth+1), Right: c.grow(r, depth+1)}
}

// growerCase draws one dataset and tree configuration from seed: 20–320 rows
// (a tenth of them copies of other rows), 2–4 classes (the last one rare, so
// bags miss it), and one column of each kind the scoring paths treat
// differently — constant, binary, signed zeros, low-cardinality, a
// cardinality above n/2, continuous — some of them carrying the label.
func growerCase(seed uint64) (*Dataset, TreeConfig) {
	r := xrand.New(seed)
	n, k := 20+r.Intn(300), 2+r.Intn(3)
	ds := &Dataset{}
	for i := 0; i < n; i++ {
		if i > 0 && r.Bool(0.1) {
			j := r.Intn(i)
			ds.Features = append(ds.Features, append([]float64(nil), ds.Features[j]...))
			ds.Labels = append(ds.Labels, ds.Labels[j])
			continue
		}
		label := r.Intn(k)
		if label == k-1 && r.Bool(0.9) {
			label = 0
		}
		signal := float64(label)
		if r.Bool(0.2) {
			signal = float64(r.Intn(k))
		}
		zero := 0.0
		if r.Bool(0.5) {
			zero = math.Copysign(0, -1)
		}
		ds.Features = append(ds.Features, []float64{
			7,                             // constant
			float64(r.Intn(2)),            // binary noise
			[]float64{zero, 1}[r.Intn(2)], // −0, +0 and 1
			signal + float64(r.Intn(3)),   // low cardinality, informative
			float64(r.Intn(5)) - 2,        // low cardinality noise
			math.Round(signal*float64(n)/4 + r.Normal(0, float64(n))), // cardinality above n/2, informative
			float64(r.Intn(n)),             // cardinality above n/2 noise
			signal + r.Normal(0, 1),        // continuous, informative
			r.Normal(0, 1),                 // continuous noise
			math.Round(r.Normal(0, 2)) / 2, // a dozen values
		})
		ds.Labels = append(ds.Labels, label)
	}
	return ds, TreeConfig{
		MaxDepth:    []int{0, 0, 3, 6}[r.Intn(4)],
		MaxFeatures: []int{0, -1, 2, 8}[r.Intn(4)], // all, sqrt, a sparse draw, a dense one
	}
}

func assertSameTree(t *testing.T, label string, got, want *treeNode) {
	t.Helper()
	if got.isLeaf() != want.isLeaf() {
		t.Fatalf("%s: leaf where the reference splits, or the reverse", label)
	}
	if want.isLeaf() {
		assertBitsEqual(t, label+" leaf", got.Probs, want.Probs)
		return
	}
	if got.Feature != want.Feature || math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
		t.Fatalf("%s: split on feature %d at %v, reference on %d at %v", label, got.Feature, got.Threshold, want.Feature, want.Threshold)
	}
	assertSameTree(t, label+"L", got.Left, want.Left)
	assertSameTree(t, label+"R", got.Right, want.Right)
}

// TestGrowerMatchesReference grows, over 120 seeded datasets and
// configurations, three bootstrap members and one whole-set tree with the
// grower — the scoring cutover forced to all-sort, left at its default, and
// forced to all-histogram — and requires each to equal naiveCART's tree node
// for node (feature, threshold bits, leaf probability bits) and to leave the
// generator where naiveCART leaves it.
func TestGrowerMatchesReference(t *testing.T) {
	saved := histCutover
	t.Cleanup(func() { histCutover = saved })
	splits, missed := 0, 0
	for seed := uint64(1); seed <= 120; seed++ {
		ds, cfg := growerCase(seed)
		n := ds.NumSamples()
		cd := newClassData(ds, ds.Classes())
		ref := &naiveCART{ds: ds, k: cd.k, cfg: cfg}
		for _, c := range cd.y {
			ref.y = append(ref.y, int(c))
		}
		for member := uint64(0); member < 4; member++ {
			// Member 0 is Tree.Fit's shape (every row once, no generator, so
			// every feature in order); the others are Forest.Fit's.
			draw := func() (rows []int, rng *xrand.RNG) {
				rows = make([]int, n)
				for i := range rows {
					rows[i] = i
				}
				if member > 0 {
					rng = xrand.New(seed<<8 | member)
					for j := range rows {
						rows[j] = rng.Intn(n)
					}
				}
				return rows, rng
			}
			rows, rng := draw()
			ref.rng = rng
			want := ref.grow(rows, 0)
			var next uint64
			if rng != nil {
				next = rng.Uint64()
			}
			splits += want.countLeaves() - 1
			seen := make([]bool, cd.k)
			for _, i := range rows {
				seen[cd.y[i]] = true
			}
			if slices.Contains(seen, false) {
				missed++
			}
			for _, cutover := range []int{0, saved, math.MaxInt32} {
				histCutover = cutover
				g := newGrower(cd, cfg)
				// A worker's grower fits one member after another: grow a
				// decoy first so that stale scratch would show.
				for i := range g.mult {
					g.mult[i] = 1
				}
				g.fit(nil)
				rows, rng := draw()
				clear(g.mult)
				for _, i := range rows {
					g.mult[i]++
				}
				label := fmt.Sprintf("seed %d member %d cutover %d: node ", seed, member, cutover)
				assertSameTree(t, label, pointerOf(g.fit(rng), cd.k), want)
				if rng != nil && rng.Uint64() != next {
					t.Fatalf("%s: generator left at a different point than the reference's", label)
				}
			}
		}
	}
	if splits < 2000 || missed < 20 {
		t.Fatalf("cases too easy: %d splits compared, %d bags missing a class", splits, missed)
	}
}

// TestForestFitAllocs pins what a forest fit allocates: a member tree costs
// its share of its grower's store, a 64 KiB chunk per handful of trees, and
// everything else (the dataset's value codes, one grower per worker, the
// arena) is per fit — nothing is per node. A member cost its generator and its
// record until trees were kept in the grower's store, a node array and a
// probability array besides until trees were handed over as records, and the
// presorted-list trainer before that made 6.6
// allocations per node: 207 664 for the 80 trees (31 446 nodes) fitted here.
// The per-tree cost is read off one worker's fits, where it does not depend on
// how the trees fell to workers; the per-fit term off fits at Parallelism 8,
// which also run the workers' growers side by side for the race detector.
func TestForestFitAllocs(t *testing.T) {
	train, _ := noisyBlobs(41, 3, 700) // 2 100 rows of overlapping classes: deep trees
	fit := func(trees, parallelism int) (allocs float64, nodes int) {
		allocs = testing.AllocsPerRun(2, func() {
			f := NewForest(ForestConfig{NumTrees: trees, Tree: TreeConfig{MaxDepth: 12}, Parallelism: parallelism, Seed: 11})
			// A dataset of its own every time, so that every fit pays for the
			// coding pass a dataset's first fit pays.
			if err := f.Fit(&Dataset{Features: train.Features, Labels: train.Labels}); err != nil {
				t.Fatal(err)
			}
			nodes = len(f.arena.nodes)
		})
		return allocs, nodes
	}
	s80, _ := fit(80, 1)
	s160, _ := fit(160, 1)
	perTree := (s160 - s80) / 80
	a80, nodes := fit(80, 8)
	perFit := a80 - 80*perTree
	t.Logf("one worker: %v allocations for 80 trees, %v for 160; %v for 80 trees (%d nodes) at Parallelism 8: %.2f per tree + %.0f per fit", s80, s160, a80, nodes, perTree, perFit)
	if raceEnabled {
		return // the detector's own bookkeeping allocates
	}
	// Measured 0.07–0.10 per tree and 151 per fit with the three workers of a
	// 2-CPU box, the coding pass included; 1.98 per tree and 144 per fit while
	// a member allocated its generator and its record, 2.98 and 176 while a
	// member was two arrays, and 63 + 39 per worker per fit when every fit
	// transposed and presorted for itself.
	workers := min(8, maxExtraWorkers+1)
	if limit := float64(60 + 48*workers); perTree > 0.25 || perFit > limit {
		t.Fatalf("Forest.Fit allocates %.2f times per tree + %.0f per fit, want ≤ 0.25 + %.0f", perTree, perFit, limit)
	}
}

// TestForestFitAllocsFlatInTrees: a member allocates nothing of its own — its
// RNG is an element of one slice and its record a view into its grower's
// store, which the next fit over the same codes reuses — so a fit of 128 trees
// makes at most a few more allocations than a fit of 16. With an RNG and a
// record allocated per tree, the difference was 224.
func TestForestFitAllocsFlatInTrees(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	train, _ := noisyBlobs(23, 3, 150)
	allocs := func(trees int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := NewForest(ForestConfig{NumTrees: trees, Seed: 23, Parallelism: 1}).Fit(train); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(128)
	t.Logf("a forest fit makes %v allocations at 16 trees, %v at 128", small, large)
	if large > small+4 {
		t.Errorf("128 trees cost %v allocations to 16 trees' %v: a member allocates", large, small)
	}
}
