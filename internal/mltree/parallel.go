package mltree

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the package's single worker-pool idiom. Forest members,
// boosted-tree histograms and split search and batch prediction all fan out
// through runWorkers, which draws helper goroutines from one package-wide
// bounded token pool so that nested parallel sections (one-vs-rest boosting
// arms whose trees also parallelize split search) cannot multiply into
// GOMAXPROCS² goroutines. A forest is parallel across members only.
//
// Determinism contract: every call site addresses its tasks by index and
// writes results only at that index, and every reduction over task results
// runs on the calling goroutine in index order. The number of helpers
// actually recruited (which varies with pool pressure) can therefore never
// change a fitted model or a prediction — only wall-clock time.

// maxExtraWorkers bounds the helper goroutines alive across the whole
// package at any instant. Snapshotted at init; worker ids passed to tasks
// are always < maxExtraWorkers+1.
var maxExtraWorkers = runtime.GOMAXPROCS(0)

// workerTokens is the package-wide pool. A token is one helper goroutine.
var workerTokens = func() chan struct{} {
	ch := make(chan struct{}, maxExtraWorkers)
	for i := 0; i < maxExtraWorkers; i++ {
		ch <- struct{}{}
	}
	return ch
}()

// minParallelSplitWork gates the boosted trees' feature-parallel histograms
// and split search: leaves whose |samples|×|features| product is below it run
// serially, since pool traffic would cost more than it saves. Variable so
// tests can force the parallel path on tiny datasets.
var minParallelSplitWork = 2048

// defaultParallelism resolves a user parallelism knob: values <= 0 mean
// "use every core".
func defaultParallelism(p int) int {
	if p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// acquireWorkers takes up to k tokens without blocking and returns how many
// it got. Non-blocking acquisition keeps nested sections deadlock-free: a
// caller that gets zero tokens simply runs inline.
func acquireWorkers(k int) int {
	got := 0
	for got < k {
		select {
		case <-workerTokens:
			got++
		default:
			return got
		}
	}
	return got
}

// releaseWorkers returns k tokens to the pool.
func releaseWorkers(k int) {
	for i := 0; i < k; i++ {
		workerTokens <- struct{}{}
	}
}

// runWorkers executes task(worker, i) for every i in [0, n), recruiting up
// to want-1 helper goroutines from the package pool (the caller's goroutine
// always works too). Worker ids are dense and unique among concurrently
// live workers, so tasks may index per-worker scratch buffers with them.
// With want <= 1, or when the pool is drained, all tasks run inline on the
// caller.
func runWorkers(n, want int, task func(worker, i int)) {
	want, extra := min(want, n), 0
	if want > 1 {
		extra = acquireWorkers(want - 1)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	defer releaseWorkers(extra)
	var next atomic.Int64
	run := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			task(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for w := 1; w <= extra; w++ {
		go func(worker int) {
			defer wg.Done()
			run(worker)
		}(w)
	}
	run(0)
	wg.Wait()
}

// minParallelPredictWork gates batch-inference fan-out: one tile of rows, or a
// batch whose rows×trees product is below it, is one predictBlock call on the
// calling goroutine. The online engine's 16-row windows must never pay for
// waking helpers — in a busy engine that is pure overhead — while a thousand-row
// evaluation batch still spreads over the pool, one tile of rows per task.
const minParallelPredictWork = 4096

// blockPredictor is a fitted model's inference kernel: predictBlock writes
// the class probabilities of every row of X into dst (row-major), on the
// calling goroutine and without allocating.
type blockPredictor interface {
	predictBlock(dst []float64, X [][]float64)
}

// predictBatchInto is the shared batch-inference driver behind every
// classifier's PredictBatchInto: dst receives len(X) rows of k
// probabilities. Rows are predicted independently, so tiling and worker
// count cannot change a result.
func predictBatchInto(m blockPredictor, k, trees, parallelism int, dst []float64, X [][]float64) {
	dst = dst[:len(X)*k]
	if len(X)*trees < minParallelPredictWork || len(X) <= tileRows {
		m.predictBlock(dst, X)
		return
	}
	blocks := (len(X) + tileRows - 1) / tileRows
	runWorkers(blocks, defaultParallelism(parallelism), func(_, b int) {
		lo, hi := b*tileRows, min((b+1)*tileRows, len(X))
		m.predictBlock(dst[lo*k:hi*k], X[lo:hi])
	})
}

// predictBatch is every classifier's PredictBatch: one backing array, one
// slice of row views over it, filled by PredictBatchInto.
func predictBatch(m Classifier, X [][]float64) [][]float64 {
	k := len(m.Classes())
	flat := make([]float64, len(X)*k)
	m.PredictBatchInto(flat, X)
	out := make([][]float64, len(X))
	for i := range out {
		out[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return out
}
