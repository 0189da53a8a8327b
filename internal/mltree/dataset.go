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
// Training reads the matrix in value-coded form (coded.go), which a dataset
// derives at its first fit and keeps: fit as often as you like, but replace
// Features (append, re-slice, a new matrix) rather than overwrite a value in
// place — only the former is noticed. A Coder builds a dataset in that form
// with no Features at all. A Dataset holds a lock and is used through a
// pointer.
type Dataset struct {
	// Features is sample-major: Features[i][j] is feature j of sample i.
	Features [][]float64
	// Labels holds one class label per sample.
	Labels []int
	// Names optionally names the feature columns (used in diagnostics and
	// serialisation); when non-nil its length must equal the feature count.
	Names []string

	// view is set on a dataset cut from another by Subset: training then
	// grows over the source's codes instead of coding these rows again.
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
		len(d.Labels) != len(v.rows) || len(v.root.Labels) != v.root.NumSamples() {
		return d, nil
	}
	for i, r := range v.rows {
		if d.Labels[i] != v.root.Labels[r] {
			return d, nil
		}
	}
	return v.root, v.rows
}

// NumSamples returns the number of samples (without Features, of labels).
func (d *Dataset) NumSamples() int {
	if d.Features == nil {
		return len(d.Labels)
	}
	return len(d.Features)
}

// NumFeatures returns the number of feature columns (0 for an empty set).
func (d *Dataset) NumFeatures() int {
	if cm := d.coderCodes(); cm != nil {
		return len(cm.codes)
	}
	if len(d.Features) == 0 {
		return 0
	}
	return len(d.Features[0])
}

// coderCodes returns the codes a dataset without Features stands for: its own
// when a Coder built it, its source's when it is a view of one; otherwise nil.
func (d *Dataset) coderCodes() *codedMatrix {
	src, _ := d.source()
	if cm := src.codes(false); d.Features == nil && cm != nil && len(cm.codes) > 0 && cm.codes[0].len() == len(src.Labels) {
		return cm
	}
	return nil
}

// rowsInto makes X's rows samples lo, lo+1, … from the codes cm of a dataset
// without Features. A row reads its values from vals, so a +0 sharing its
// code with a −0 reads −0.
func (d *Dataset) rowsInto(X [][]float64, lo int, cm *codedMatrix) {
	_, idx := d.source()
	fr := fitRows{codedMatrix: cm, rows: idx}
	for i, row := range X {
		r := fr.row(lo + i)
		for f := range row {
			row[f] = cm.vals[f][cm.codes[f].at(r)]
		}
	}
}

// newRows returns n rows of width values over one backing array.
func newRows(n, width int) [][]float64 {
	X, backing := make([][]float64, n), make([]float64, n*width)
	for i := range X {
		X[i] = backing[i*width : (i+1)*width : (i+1)*width]
	}
	return X
}

// Materialize gives a dataset a Coder built its Features, made from the codes,
// for callers that read the float rows. The dataset keeps its codes: fitting
// it codes nothing. Call it before the dataset is shared or cut into views.
func (d *Dataset) Materialize() {
	if cm := d.coderCodes(); cm != nil && d.view == nil {
		X := newRows(d.NumSamples(), len(cm.codes))
		d.rowsInto(X, 0, cm)
		d.Features, cm.of = X, idOf(X)
	}
}

// Validate checks rectangularity, label consistency and value sanity (a
// Coder checked the values of a dataset without Features as they came).
func (d *Dataset) Validate() error {
	n, width := len(d.Features), d.NumFeatures()
	if d.coderCodes() != nil {
		n = len(d.Labels)
	}
	switch {
	case n == 0:
		return fmt.Errorf("mltree: dataset has no samples")
	case len(d.Labels) != n:
		return fmt.Errorf("mltree: %d samples but %d labels", n, len(d.Labels))
	case width == 0:
		return fmt.Errorf("mltree: dataset has no features")
	case d.Names != nil && len(d.Names) != width:
		return fmt.Errorf("mltree: %d feature names for %d features", len(d.Names), width)
	}
	for i, row := range d.Features {
		if err := checkRow(i, row, width); err != nil {
			return err
		}
	}
	return nil
}

// checkRow is Validate's check of sample i's row.
func checkRow(i int, row []float64, width int) error {
	if len(row) != width {
		return fmt.Errorf("mltree: sample %d has %d features, want %d", i, len(row), width)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("mltree: sample %d feature %d is %g", i, j, v)
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
// shares the rows' storage (and is nil when d's is), and the result is a view
// of d (of d's source, when d is a view) for training. Indices may repeat
// (bootstrap sampling).
func (d *Dataset) Subset(indices []int) *Dataset {
	root, rows := d.source()
	v := &viewOf{root: root, rows: make([]int32, len(indices)), rootID: idOf(root.Features)}
	out := &Dataset{Labels: make([]int, len(indices)), Names: d.Names, view: v}
	if d.Features != nil {
		out.Features = make([][]float64, len(indices))
	}
	for k, i := range indices {
		if out.Features != nil {
			out.Features[k] = d.Features[i]
		}
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
	// A class's first k shuffled samples train: k of its n, at least one.
	trains := func(n int) int { return min(max(int(math.Round(float64(n)*trainFrac)), 1), n) }
	trained := 0
	for c := range classes {
		trained += trains(start[c+1] - start[c])
	}
	// The training side is compacted into the front of byClass.
	trainIdx, testIdx := byClass[:0], make([]int, 0, len(byClass)-trained)
	for c := range classes {
		idx := byClass[start[c]:start[c+1]]
		rng.ShuffleInts(idx)
		k := trains(len(idx))
		testIdx = append(testIdx, idx[k:]...)
		trainIdx = append(trainIdx, idx[:k]...)
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
	return ArgmaxLabel(c.Classes(), c.PredictProba(x))
}

// PredictLabels batch-predicts the most probable label for every row of X.
func PredictLabels(c Classifier, X [][]float64) []int {
	probs := c.PredictBatch(X)
	classes := c.Classes()
	out := make([]int, len(probs))
	for i, p := range probs {
		out[i] = ArgmaxLabel(classes, p)
	}
	return out
}

// ArgmaxLabel returns the label of the largest of one row's probabilities,
// aligned with classes, breaking ties toward the smaller label: Predict's
// answer for a row whose probabilities were predicted elsewhere.
func ArgmaxLabel(classes []int, probs []float64) int {
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
