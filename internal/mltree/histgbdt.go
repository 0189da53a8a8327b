package mltree

import (
	"math"
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
	c.Parallelism = defaultParallelism(c.Parallelism)
	return c
}

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
	return h.fit(ds, "HistGBDT", h.Config.Parallelism, h.Config.Seed, h.fitBinary)
}

func (h *HistGBDT) fitBinary(fr fitRows, y []float64, rng *xrand.RNG) *booster {
	b := newBoostGrower(fr, true)
	gw, hw := make([]float64, fr.n), make([]float64, fr.n)
	g := newGossScratch(fr.n)
	return boost(fr, y, h.Config.Rounds, func(grad, hess []float64) *treeNode {
		samples, scale := g.sample(grad, rng)
		for _, i := range samples {
			gw[i], hw[i] = grad[i]*scale[i], hess[i]*scale[i]
		}
		return b.growBestFirst(b.start(samples, gw, hw), h.Config.MaxLeaves)
	})
}

// histBins returns the bin of each of feature f's codes and the largest code
// of each bin: histMaxBins quantile cuts of the fit's own codes, each the code
// at one of the ranks k·(n−1)/histMaxBins of the fit's n samples in code
// order, distinct, and below the largest code (a cut there would leave the
// last bin empty).
func histBins(fr fitRows, f int) (bin []uint8, cut []int32) {
	count := make([]int, len(fr.vals[f]))
	for i := range fr.n {
		count[fr.codes[f].at(fr.row(i))]++
	}
	top := len(count) - 1
	for count[top] == 0 {
		top--
	}
	c, below := 0, count[0] // below: the samples coded at most c
	for k := 1; k < histMaxBins; k++ {
		rank := k * (fr.n - 1) / histMaxBins
		for below <= rank {
			c++
			below += count[c]
		}
		if c < top && (len(cut) == 0 || int32(c) > cut[len(cut)-1]) {
			cut = append(cut, int32(c))
		}
	}
	bin = make([]uint8, len(count))
	for c, b := 0, 0; c < len(bin); c++ {
		bin[c] = uint8(b)
		if b < len(cut) && int32(c) == cut[b] {
			b++
		}
	}
	return bin, cut
}

// gossScratch is one fit's Gradient-based One-Side Sampling buffers, which
// every round reuses.
type gossScratch struct {
	order, samples, draw []int
	scale                []float64
}

func newGossScratch(n int) *gossScratch {
	return &gossScratch{order: make([]int, n), scale: make([]float64, n)}
}

// sample performs GOSS over the n training rows: keep the gossTopRate fraction
// with the largest |gradient|, sample gossOtherRate of the rest, and return
// the sampled rows and a per-row weight multiplier that compensates the
// downsampling (0 for the rows not sampled). Both are g's until its next
// sample.
func (g *gossScratch) sample(grad []float64, rng *xrand.RNG) (samples []int, scale []float64) {
	n := len(grad)
	order, scale := g.order[:n], g.scale[:n]
	clear(scale)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return math.Abs(grad[order[a]]) > math.Abs(grad[order[b]])
	})
	topN := max(1, int(gossTopRate*float64(n)))
	restN := max(1, int(gossOtherRate*float64(n)))
	if topN+restN > n {
		restN = n - topN
	}
	samples = append(g.samples[:0], order[:topN]...)
	for _, i := range samples {
		scale[i] = 1
	}
	rest := order[topN:]
	// Exactly 8, the value the float64 operations give as well.
	amplify := (1 - gossTopRate) / gossOtherRate
	if len(rest) > 0 && restN > 0 {
		g.draw = rng.SampleIntsInto(g.draw, len(rest), min(restN, len(rest)))
		for _, k := range g.draw {
			i := rest[k]
			samples = append(samples, i)
			scale[i] = amplify
		}
	}
	g.samples = samples
	return samples, scale
}

// PredictBatchInto predicts every row of X into dst.
func (h *HistGBDT) PredictBatchInto(dst []float64, X [][]float64) {
	predictBatchInto(h, len(h.classes), h.NumTrees(), h.Config.Parallelism, dst, X)
}

// PredictBatch predicts every row of X.
func (h *HistGBDT) PredictBatch(X [][]float64) [][]float64 { return predictBatch(h, X) }
