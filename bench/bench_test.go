package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// TestSmoke runs every workload at a twentieth of its size, untraced and
// traced: the harness keeps compiling against the packages it measures, the
// verdict gate stays green, and every declared metric gets a value.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o := options{seed: 7, seconds: 1, scale: 0.05, outDir: t.TempDir()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, o, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d", w.name, traced, res.correct, res.attempted, res.failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !traced {
				for _, d := range endToEnd {
					if _, ok := res.metrics[d.Name]; !ok {
						t.Errorf("%s: metric %s not reported", w.name, d.Name)
					}
				}
			}
			for name := range res.metrics {
				if !declared(defs, name) {
					t.Errorf("%s (traced %v): metric %s reported but not declared", w.name, traced, name)
				}
			}
		}
	}
}

func declared(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestManifest pins the program's workload and metric tables to
// BENCHMARK.json, the description the driver reads.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", manifest.EndToEnd, endToEnd, true)
	compare("per_layer", manifest.PerLayer, perLayer, false)
}
