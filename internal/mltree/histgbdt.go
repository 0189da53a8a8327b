package mltree

import (
	"math"
	"runtime"
	"sort"

	"cordial/internal/xrand"
)

// HistGBDT's fixed settings beside those it shares with GBDT (learningRate,
// lambda, minChildWeight), LightGBM's defaults: histogram bins per feature,
// the fewest samples a leaf may hold, and GOSS's fractions — the share of
// largest gradients every tree keeps, and the share of the rest it samples.
const (
	histMaxBins   = 64
	histMinLeaf   = 5
	gossTopRate   = 0.2
	gossOtherRate = 0.1
)

// HistGBDTConfig configures the LightGBM-style histogram gradient booster.
type HistGBDTConfig struct {
	// Rounds is the number of boosting rounds per class (default 100).
	Rounds int
	// MaxLeaves bounds leaf-wise growth (default 31).
	MaxLeaves int
	// Parallelism caps the goroutines fitting one-vs-rest arms and
	// scanning split histograms; <=0 means runtime.GOMAXPROCS(0). Results
	// are identical for any value: arm RNG streams are derived up front
	// and split search reduces deterministically. A model file does not
	// record it: a loaded model predicts on the loading process's cores.
	Parallelism int `json:"-"`
	// Seed drives GOSS sampling.
	Seed uint64
}

func (c HistGBDTConfig) withDefaults() HistGBDTConfig {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.MaxLeaves <= 1 {
		c.MaxLeaves = 31
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// binner maps feature values to histogram bins via per-feature quantile
// boundaries. Upper[f][b] is the inclusive upper value of bin b; the last
// bin is unbounded.
type binner struct {
	Upper [][]float64 `json:"upper"`

	// offset[f] is feature f's start in the flattened histogram arrays;
	// total is the arena size. Training-only, set by newBinner.
	offset []int
	total  int
}

// newBinner computes quantile-spaced bin boundaries from the training data.
func newBinner(features [][]float64, maxBins int) *binner {
	numFeatures := len(features[0])
	b := &binner{Upper: make([][]float64, numFeatures)}
	vals := make([]float64, len(features))
	for f := 0; f < numFeatures; f++ {
		for i, row := range features {
			vals[i] = row[f]
		}
		sort.Float64s(vals)
		// Distinct quantile cut points. A cut equal to the feature's
		// maximum would leave the last bin empty (and a constant feature
		// needs no cuts at all), so cuts stay strictly below the max.
		maxVal := vals[len(vals)-1]
		var cuts []float64
		for k := 1; k < maxBins; k++ {
			v := vals[k*(len(vals)-1)/maxBins]
			if v >= maxVal {
				continue
			}
			if len(cuts) == 0 || v > cuts[len(cuts)-1] {
				cuts = append(cuts, v)
			}
		}
		b.Upper[f] = cuts
	}
	b.offset = make([]int, numFeatures)
	for f := 0; f < numFeatures; f++ {
		b.offset[f] = b.total
		b.total += b.numBins(f)
	}
	return b
}

// bin returns the bin index of value v for feature f.
func (b *binner) bin(f int, v float64) int {
	cuts := b.Upper[f]
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// numBins returns the bin count for feature f (len(cuts)+1).
func (b *binner) numBins(f int) int { return len(b.Upper[f]) + 1 }

// threshold returns the split value for "bin ≤ b": the upper boundary of b.
func (b *binner) threshold(f, bin int) float64 { return b.Upper[f][bin] }

// HistGBDT is a LightGBM-style gradient booster: per-feature histogram
// binning, leaf-wise (best-first) tree growth bounded by MaxLeaves, and
// Gradient-based One-Side Sampling (GOSS). Loss and multi-class handling
// match GBDT (logistic, one-vs-rest).
type HistGBDT struct {
	Config HistGBDTConfig
	boosted
}

// NewHistGBDT returns an unfitted histogram booster.
func NewHistGBDT(cfg HistGBDTConfig) *HistGBDT {
	return &HistGBDT{Config: cfg.withDefaults()}
}

var _ Classifier = (*HistGBDT)(nil)

// Fit trains one boosting chain per class (a single chain for binary).
func (h *HistGBDT) Fit(ds *Dataset) error {
	if err := h.begin(ds, "HistGBDT"); err != nil {
		return err
	}
	X := ds.rows()
	bins := newBinner(X, histMaxBins)

	// Pre-bin the whole matrix once, rows in parallel (each row is
	// independent, so worker count cannot change the result).
	binned := make([][]uint16, ds.NumSamples())
	runWorkers(ds.NumSamples(), h.Config.Parallelism, func(_, i int) {
		row := X[i]
		br := make([]uint16, len(row))
		for f, v := range row {
			br[f] = uint16(bins.bin(f, v))
		}
		binned[i] = br
	})
	return h.compile(trainArms(ds, h.classes, h.Config.Parallelism, h.Config.Seed, func(y []float64, rng *xrand.RNG) *booster {
		return h.fitBinary(ds, binned, bins, y, rng)
	}))
}

func (h *HistGBDT) fitBinary(ds *Dataset, binned [][]uint16, bins *binner, y []float64, rng *xrand.RNG) *booster {
	return boost(ds.NumSamples(), y, h.Config.Rounds,
		func(grad, hess []float64) *treeNode {
			samples, scale := goss(grad, rng)
			g := &histGrower{
				maxLeaves: h.Config.MaxLeaves,
				bins:      bins,
				binned:    binned,
				grad:      grad,
				hess:      hess,
				scale:     scale,
			}
			return g.grow(samples)
		},
		// Update margins by navigating the pre-binned matrix: split bins
		// were chosen so that binned[i][f] <= bin ⟺ raw value <= threshold,
		// so this is bit-identical to navigating the raw features — without
		// touching the float matrix.
		func(root *treeNode, i int) float64 { return root.navigateBinned(binned[i]).Value })
}

// goss performs Gradient-based One-Side Sampling over the training rows: keep
// the gossTopRate fraction with the largest |gradient|, sample gossOtherRate
// of the rest, and return a per-sample weight multiplier that compensates the
// downsampling.
func goss(grad []float64, rng *xrand.RNG) (samples []int, scale []float64) {
	n := len(grad)
	scale = make([]float64, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return math.Abs(grad[order[a]]) > math.Abs(grad[order[b]])
	})
	topN := int(gossTopRate * float64(n))
	if topN < 1 {
		topN = 1
	}
	restN := int(gossOtherRate * float64(n))
	if restN < 1 {
		restN = 1
	}
	if topN+restN > n {
		restN = n - topN
	}
	samples = append(samples, order[:topN]...)
	for _, i := range samples {
		scale[i] = 1
	}
	rest := order[topN:]
	// Exactly 8, the value the float64 operations give as well.
	amplify := (1 - gossTopRate) / gossOtherRate
	if len(rest) > 0 && restN > 0 {
		for _, k := range rng.SampleInts(len(rest), min(restN, len(rest))) {
			i := rest[k]
			samples = append(samples, i)
			scale[i] = amplify
		}
	}
	return samples, scale
}

// histGrower grows one tree leaf-wise over binned features.
type histGrower struct {
	maxLeaves int
	bins      *binner
	binned    [][]uint16
	grad      []float64
	hess      []float64
	scale     []float64
}

// leafHist is a leaf's per-feature histograms, flattened into one arena
// indexed by binner.offset — gradient sum, hessian sum and sample count per
// (feature, bin).
type leafHist struct {
	g, h []float64
	n    []int
}

func newLeafHist(total int) *leafHist {
	return &leafHist{
		g: make([]float64, total),
		h: make([]float64, total),
		n: make([]int, total),
	}
}

// leafState tracks a grown leaf, its histograms, and its best candidate
// split.
type leafState struct {
	node    *treeNode
	samples []int
	sumG    float64
	sumH    float64
	hist    *leafHist

	bestGain float64
	bestFeat int
	bestBin  int
}

func (g *histGrower) grow(samples []int) *treeNode {
	root := &treeNode{}
	rootLeaf := g.newLeaf(root, samples)
	leaves := []*leafState{rootLeaf}

	for len(leaves) < g.maxLeaves {
		// Pick the splittable leaf with the largest gain.
		var best *leafState
		for _, l := range leaves {
			if l.bestGain > 0 && (best == nil || l.bestGain > best.bestGain) {
				best = l
			}
		}
		if best == nil {
			break
		}
		left, right := g.split(best)
		if left == nil {
			best.bestGain = 0 // split fell through; stop considering it
			continue
		}
		// Replace the split leaf with its children.
		for i, l := range leaves {
			if l == best {
				leaves[i] = left
				leaves = append(leaves, right)
				break
			}
		}
	}
	// Finalise leaf values.
	for _, l := range leaves {
		l.node.Left, l.node.Right = nil, nil
		l.node.Value = -l.sumG / (l.sumH + lambda)
		l.hist = nil
	}
	return root
}

// newLeaf materialises a leaf whose histograms are built directly from its
// samples (the root, and the smaller child of every split).
func (g *histGrower) newLeaf(node *treeNode, samples []int) *leafState {
	l := &leafState{node: node, samples: samples}
	for _, i := range samples {
		l.sumG += g.grad[i] * g.scale[i]
		l.sumH += g.hess[i] * g.scale[i]
	}
	l.hist = g.buildHist(samples)
	g.findBestSplit(l)
	return l
}

// derivedLeaf materialises the larger child of a split by histogram
// subtraction: its histograms and gradient/hessian totals are the parent's
// minus its sibling's, skipping a pass over the (larger) sample half.
// The subtraction reuses the parent's arena, which the parent no longer
// needs.
func (g *histGrower) derivedLeaf(node *treeNode, samples []int, parent, sibling *leafState) *leafState {
	hist := parent.hist
	for k := range hist.g {
		hist.g[k] -= sibling.hist.g[k]
		hist.h[k] -= sibling.hist.h[k]
		hist.n[k] -= sibling.hist.n[k]
	}
	l := &leafState{
		node:    node,
		samples: samples,
		sumG:    parent.sumG - sibling.sumG,
		sumH:    parent.sumH - sibling.sumH,
		hist:    hist,
	}
	g.findBestSplit(l)
	return l
}

// buildHist accumulates a leaf's histograms in one row-major pass over its
// samples: per (feature, bin) cell the samples contribute in index order,
// exactly as a per-feature scan would.
func (g *histGrower) buildHist(samples []int) *leafHist {
	h := newLeafHist(g.bins.total)
	offset := g.bins.offset
	for _, i := range samples {
		w := g.scale[i]
		gw, hw := g.grad[i]*w, g.hess[i]*w
		for f, b := range g.binned[i] {
			k := offset[f] + int(b)
			h.g[k] += gw
			h.h[k] += hw
			h.n[k]++
		}
	}
	return h
}

// findBestSplit scans the leaf's stored histograms for the best bin split,
// features fanned out over the shared worker pool and reduced in feature
// order with a strict greater-than — the serial scan's winner, bit for bit.
func (g *histGrower) findBestSplit(l *leafState) {
	l.bestGain = 0
	if len(l.samples) < 2*histMinLeaf {
		return
	}
	numFeatures := len(g.binned[0])
	cands := make([]splitCand, numFeatures)
	want := 1
	if len(l.samples)*numFeatures >= minParallelSplitWork {
		want = numFeatures
	}
	runWorkers(numFeatures, want, func(_, f int) {
		cands[f] = g.evalFeature(l, f)
	})
	for _, c := range cands {
		if c.ok && c.gain > l.bestGain {
			l.bestGain = c.gain
			l.bestFeat = c.feat
			l.bestBin = c.bin
		}
	}
}

// evalFeature scans one feature's histogram slice for its best bin split.
func (g *histGrower) evalFeature(l *leafState, f int) splitCand {
	nb := g.bins.numBins(f)
	if nb < 2 {
		return splitCand{}
	}
	off := g.bins.offset[f]
	histG := l.hist.g[off : off+nb]
	histH := l.hist.h[off : off+nb]
	histN := l.hist.n[off : off+nb]
	score := func(gs, hs float64) float64 { return gs * gs / (hs + lambda) }
	parent := score(l.sumG, l.sumH)
	best := splitCand{feat: f}
	var gl, hl float64
	var nl int
	for b := 0; b < nb-1; b++ {
		gl += histG[b]
		hl += histH[b]
		nl += histN[b]
		if nl < histMinLeaf || len(l.samples)-nl < histMinLeaf {
			continue
		}
		gr, hr := l.sumG-gl, l.sumH-hl
		if hl < minChildWeight || hr < minChildWeight {
			continue
		}
		gain := 0.5 * (score(gl, hl) + score(gr, hr) - parent)
		if gain > best.gain {
			best.gain = gain
			best.bin = b
			best.ok = true
		}
	}
	return best
}

// split applies a leaf's best split, converting it into an internal node and
// returning the two child leaves. It returns nil children when the split
// degenerates (e.g. all samples on one side).
func (g *histGrower) split(l *leafState) (left, right *leafState) {
	var ls, rs []int
	for _, i := range l.samples {
		if int(g.binned[i][l.bestFeat]) <= l.bestBin {
			ls = append(ls, i)
		} else {
			rs = append(rs, i)
		}
	}
	if len(ls) == 0 || len(rs) == 0 {
		return nil, nil
	}
	l.node.Feature = l.bestFeat
	l.node.Threshold = g.bins.threshold(l.bestFeat, l.bestBin)
	l.node.bin = l.bestBin
	l.node.Left = &treeNode{}
	l.node.Right = &treeNode{}
	// Histogram subtraction: build the smaller child from its samples,
	// derive the larger as parent − smaller.
	if len(ls) <= len(rs) {
		left = g.newLeaf(l.node.Left, ls)
		right = g.derivedLeaf(l.node.Right, rs, l, left)
	} else {
		right = g.newLeaf(l.node.Right, rs)
		left = g.derivedLeaf(l.node.Left, ls, l, right)
	}
	l.hist = nil
	return left, right
}

// PredictBatchInto predicts every row of X into dst.
func (h *HistGBDT) PredictBatchInto(dst []float64, X [][]float64) {
	predictBatchInto(h, len(h.classes), h.NumTrees(), h.Config.Parallelism, dst, X)
}

// PredictBatch predicts every row of X.
func (h *HistGBDT) PredictBatch(X [][]float64) [][]float64 { return predictBatch(h, X) }
