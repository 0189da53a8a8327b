package core

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"cordial/internal/features"
)

// TestLoadModelsRejectsWideModel asserts a model file whose pattern or block
// model splits on a feature the stage's vectors do not have is refused at
// LoadModels, with the pipeline left as it was — not loaded and left to index
// past a vector at the first prediction. The last feature of each vector is
// still accepted.
func TestLoadModelsRejectsWideModel(t *testing.T) {
	p := fitPipeline(t, RandomForest, testFleet(t, 2, 60).Faults)
	var buf bytes.Buffer
	if err := p.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n") // header, pattern model, block model
	firstRoot := regexp.MustCompile(`"root":\{"f":\d+`)
	for stage, width := range map[string]int{"pattern": len(features.PatternFeatureNames()), "block": features.BlockFeatureCount} {
		for _, feature := range []int{width - 1, width} {
			file := append([]string(nil), lines...)
			line, done := map[string]int{"pattern": 1, "block": 2}[stage], false
			file[line] = firstRoot.ReplaceAllStringFunc(file[line], func(m string) string {
				if done {
					return m
				}
				done = true
				return fmt.Sprintf(`"root":{"f":%d`, feature)
			})
			clone, err := New(DefaultConfig(RandomForest))
			if err != nil {
				t.Fatal(err)
			}
			err = clone.LoadModels(strings.NewReader(strings.Join(file, "")))
			switch {
			case feature < width && err != nil:
				t.Errorf("%s model splitting on feature %d of %d refused: %v", stage, feature, width, err)
			case feature >= width && (err == nil || !strings.Contains(err.Error(), stage) || clone.Fitted()):
				t.Errorf("%s model splitting on feature %d of %d: err %v, pipeline fitted %v", stage, feature, width, err, clone.Fitted())
			}
		}
	}
}

// TestModelHeapPerNode is the model-footprint gate: a fitted default pipeline
// — both models, their class lists, the metadata — holds at most 13 B of live
// heap per tree node (an 8-byte node, its share of the distinct leaf rows and
// of the threshold tables; 10.5 measured, 18.4 while every leaf had a row of
// its own, ≈ 110 with the pointer trees and their flat copy), and ModelSize
// accounts for nearly all of it.
func TestModelHeapPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	fleet := testFleet(t, 1, 120)
	var before, after runtime.MemStats
	// Two collections: a sync.Pool (json's encoder buffers, left by earlier
	// tests) keeps its contents through one, and freeing them during Fit would
	// count against the pipeline.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := New(DefaultConfig(RandomForest))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(fleet.Faults); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	nodes, size := p.ModelSize()
	heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("%d nodes: %.1f B of live heap per node, ModelSize %.1f", nodes, heap/float64(nodes), float64(size)/float64(nodes))
	if nodes < 10000 {
		t.Fatalf("default pipeline has %d nodes: too small to measure", nodes)
	}
	if perNode := heap / float64(nodes); perNode > 13 {
		t.Errorf("a fitted pipeline holds %.1f B of heap per tree node, want ≤ 13", perNode)
	}
	if float64(size) < 0.8*heap || float64(size) > heap {
		t.Errorf("ModelSize reports %d B of a pipeline holding %.0f B", size, heap)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(fleet)
}

// TestFitTransientBytes is the training-garbage gate: one default
// Pipeline.Fit on a fixed 120-bank fleet — three forest fits, the third a
// calibration refit on a view of the block dataset — may allocate at most
// 4.28 MB in at most 429 allocations: what was measured at 1–16 procs on a
// 2-CPU box, 3.22–3.89 MB in 217–379, plus 10 %. It was 3.81–4.45 MB in
// 232–390 while every value code was an int32 (four bytes a cell, where most
// columns now take one), 4.34–4.74 MB in 746–893 while every grown tree was a
// record of its own and every member's RNG a heap object, 8.4–9.6 MB in
// 1 071–1 319 while the block dataset was a float matrix coded after it was
// built and a grown tree was copied out as nodes and leaf rows, 18.9 MB when
// every fit transposed, presorted and coded its own copy of the matrix, and
// 2 936 allocations when the dataset builders made a feature state and a
// vector per bank and a window per UER. What the fitted pipeline retains is
// TestModelHeapPerNode's.
func TestFitTransientBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	fleet := testFleet(t, 1, 120)
	fit := func() *Pipeline {
		p, err := New(DefaultConfig(RandomForest))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Fit(fleet.Faults); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fit() // warm pools and lazily initialised tables
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := fit()
	runtime.ReadMemStats(&after)
	total, count := float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs
	t.Logf("one default Pipeline.Fit allocates %.2f MB in %d allocations", total, count)
	if total > 4.28 {
		t.Errorf("Pipeline.Fit allocates %.2f MB, want ≤ 4.28", total)
	}
	if count > 429 {
		t.Errorf("Pipeline.Fit makes %d allocations, want ≤ 429", count)
	}
	runtime.KeepAlive(p)
}
