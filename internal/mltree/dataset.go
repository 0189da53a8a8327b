// Package mltree is a from-scratch, stdlib-only implementation of the
// tree-based learners the Cordial paper uses: CART decision trees, Random
// Forest (bagging with feature subsampling), XGBoost-style second-order
// gradient boosting, and LightGBM-style histogram gradient boosting with
// GOSS. Go has no mainstream counterpart to these libraries, so this package
// is the substitution substrate for the paper's model zoo (DESIGN.md §1).
//
// All learners implement the Classifier interface over a shared Dataset
// type, draw randomness exclusively from an injected deterministic RNG, and
// serialise to JSON.
package mltree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"cordial/internal/xrand"
)

// Dataset is a dense feature matrix with integer class labels. Labels may be
// any ints (not necessarily contiguous); learners remap them internally.
//
// Classification training reads the matrix in value-coded form (coded.go),
// which a dataset derives at its first Tree or Forest fit and keeps: fit as
// often as you like, but replace Features (append, re-slice, a new matrix)
// rather than overwrite a value in place — only the former is noticed. A
// Dataset holds a lock and is used through a pointer.
type Dataset struct {
	// Features is sample-major: Features[i][j] is feature j of sample i.
	Features [][]float64
	// Labels holds one class label per sample.
	Labels []int
	// Names optionally names the feature columns (used in diagnostics and
	// serialisation); when non-nil its length must equal the feature count.
	Names []string

	// view is set on a dataset cut from another by Subset: classification
	// training then grows over the source's codes instead of coding these rows
	// again.
	view *viewOf

	mu    sync.Mutex   // guards coded
	coded *codedMatrix // of Features as they were when it was built
}

// viewOf records where a Subset's samples came from: sample i is row rows[i]
// of root, which is not itself a view. It holds while neither matrix has been
// replaced since (the identities below) and the labels still agree.
type viewOf struct {
	root         *Dataset
	rows         []int32
	rootID, self matrixID
}

// matrixID tells one Features slice from another by where it starts and how
// long it is.
type matrixID struct {
	first *[]float64
	n     int
}

func idOf(X [][]float64) matrixID {
	if len(X) == 0 {
		return matrixID{}
	}
	return matrixID{&X[0], len(X)}
}

// source returns the dataset whose rows d's samples are and the row of each:
// d's root while d is an intact view, otherwise d itself and nil (sample i is
// row i).
func (d *Dataset) source() (*Dataset, []int32) {
	v := d.view
	if v == nil || v.self != idOf(d.Features) || v.rootID != idOf(v.root.Features) ||
		len(d.Labels) != len(v.rows) || len(v.root.Labels) != v.rootID.n {
		return d, nil
	}
	for i, r := range v.rows {
		if d.Labels[i] != v.root.Labels[r] {
			return d, nil
		}
	}
	return v.root, v.rows
}

// NumSamples returns the number of samples.
func (d *Dataset) NumSamples() int { return len(d.Features) }

// NumFeatures returns the number of feature columns (0 for an empty set).
func (d *Dataset) NumFeatures() int {
	if len(d.Features) == 0 {
		return 0
	}
	return len(d.Features[0])
}

// Validate checks rectangularity, label consistency and value sanity.
func (d *Dataset) Validate() error {
	if len(d.Features) == 0 {
		return fmt.Errorf("mltree: dataset has no samples")
	}
	if len(d.Labels) != len(d.Features) {
		return fmt.Errorf("mltree: %d samples but %d labels", len(d.Features), len(d.Labels))
	}
	width := len(d.Features[0])
	if width == 0 {
		return fmt.Errorf("mltree: dataset has no features")
	}
	if d.Names != nil && len(d.Names) != width {
		return fmt.Errorf("mltree: %d feature names for %d features", len(d.Names), width)
	}
	for i, row := range d.Features {
		if len(row) != width {
			return fmt.Errorf("mltree: sample %d has %d features, want %d", i, len(row), width)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("mltree: sample %d feature %d is %g", i, j, v)
			}
		}
	}
	return nil
}

// Classes returns the sorted distinct labels.
func (d *Dataset) Classes() []int {
	seen := make(map[int]bool)
	for _, l := range d.Labels {
		seen[l] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Subset returns the selected samples as a dataset of their own: Features
// shares the rows' storage, and the result is a view of d (of d's source, when
// d is a view) for classification training. Indices may repeat (bootstrap
// sampling).
func (d *Dataset) Subset(indices []int) *Dataset {
	root, rows := d.source()
	v := &viewOf{root: root, rows: make([]int32, len(indices)), rootID: idOf(root.Features)}
	out := &Dataset{
		Features: make([][]float64, len(indices)),
		Labels:   make([]int, len(indices)),
		Names:    d.Names,
		view:     v,
	}
	for k, i := range indices {
		out.Features[k] = d.Features[i]
		out.Labels[k] = d.Labels[i]
		if v.rows[k] = int32(i); rows != nil {
			v.rows[k] = rows[i]
		}
	}
	v.self = idOf(out.Features)
	return out
}

// StratifiedSplit partitions the dataset preserving per-class proportions.
// Classes with a single sample go to the training side.
func (d *Dataset) StratifiedSplit(rng *xrand.RNG, trainFrac float64) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("mltree: stratified split fraction %g out of (0,1)", trainFrac)
	}
	// The samples grouped by class in one array, classes in label order (a
	// deterministic order, for reproducibility), each class's ascending.
	classes := d.Classes()
	at := classIndex(classes)
	start := make([]int, len(classes)+1)
	for _, l := range d.Labels {
		start[at[l]+1]++
	}
	for c := range classes {
		start[c+1] += start[c]
	}
	byClass, next := make([]int, len(d.Labels)), slices.Clone(start)
	for i, l := range d.Labels {
		byClass[next[at[l]]] = i
		next[at[l]]++
	}
	trainIdx, testIdx := make([]int, 0, len(byClass)), make([]int, 0, len(byClass))
	for c := range classes {
		idx := byClass[start[c]:start[c+1]]
		rng.ShuffleInts(idx)
		k := int(math.Round(float64(len(idx)) * trainFrac))
		if k == 0 {
			k = 1
		}
		if k > len(idx) {
			k = len(idx)
		}
		trainIdx = append(trainIdx, idx[:k]...)
		testIdx = append(testIdx, idx[k:]...)
	}
	if len(trainIdx) == 0 || len(testIdx) == 0 {
		return nil, nil, fmt.Errorf("mltree: stratified split produced an empty side")
	}
	rng.ShuffleInts(trainIdx)
	rng.ShuffleInts(testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}

// Classifier is a multi-class probabilistic classifier. Implementations are
// fitted once and then read-only; Predict* methods are safe for concurrent
// use after Fit returns.
type Classifier interface {
	// Fit trains on the dataset.
	Fit(ds *Dataset) error
	// Classes returns the sorted class labels seen during Fit.
	Classes() []int
	// PredictProba returns one probability per class, aligned with
	// Classes(), summing to 1.
	PredictProba(x []float64) []float64
	// PredictBatchInto predicts every row of X into dst, row-major:
	// row i's probabilities are dst[i*k:(i+1)*k] with k = len(Classes()),
	// each identical to PredictProba on that row. dst must hold at least
	// len(X)*k values. It does not allocate, and batches too small to be
	// worth a goroutine hand-off run on the calling goroutine.
	PredictBatchInto(dst []float64, X [][]float64)
	// PredictBatch is PredictBatchInto into freshly allocated rows.
	PredictBatch(X [][]float64) [][]float64
}

// Predict returns the label with the highest predicted probability, breaking
// ties toward the smaller label.
func Predict(c Classifier, x []float64) int {
	return argmaxLabel(c.Classes(), c.PredictProba(x))
}

// PredictLabels batch-predicts the most probable label for every row of X.
func PredictLabels(c Classifier, X [][]float64) []int {
	probs := c.PredictBatch(X)
	classes := c.Classes()
	out := make([]int, len(probs))
	for i, p := range probs {
		out[i] = argmaxLabel(classes, p)
	}
	return out
}

// argmaxLabel returns the label of the largest probability, breaking ties
// toward the smaller label.
func argmaxLabel(classes []int, probs []float64) int {
	best, bestP := 0, math.Inf(-1)
	for i, p := range probs {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return classes[best]
}

// classIndex builds a label→index map for the sorted class list.
func classIndex(classes []int) map[int]int {
	idx := make(map[int]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	return idx
}
