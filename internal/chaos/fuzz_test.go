package chaos

import (
	"os"
	"path/filepath"
	"testing"

	"cordial/internal/hbm"
)

// scenarioDigests pins the plan each checked-in scenario resolves to (events
// and chaos schedule, FNV-1a): a parser change that reads one of them
// differently — a dropped key, a re-typed scalar — moves its digest.
var scenarioDigests = map[string]string{
	"chaos-during-model-swap.yaml": "4f990ce0bd017fce",
	"ci-smoke.yaml":                "eb3b1a8b5e0e7c01",
	"cluster-kill-one.yaml":        "191b28fc3bc90902",
	"poison-storm.yaml":            "d3707af13acbdc91",
}

// checkedInScenarios returns scenarios/*.yaml by base name.
func checkedInScenarios(t testing.TB) map[string][]byte {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no checked-in scenarios (%v)", err)
	}
	out := make(map[string][]byte)
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = data
	}
	return out
}

// TestScenarioPlanDigests runs every checked-in scenario through the parser
// and the plan builder and requires the digest recorded above; a new scenario
// must record one.
func TestScenarioPlanDigests(t *testing.T) {
	for name, data := range checkedInScenarios(t) {
		sc, err := ParseScenario(data)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		plan, err := BuildPlan(sc, hbm.HBM2E)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want, ok := scenarioDigests[name]; !ok || plan.Digest != want {
			t.Errorf("%s: plan digest %s, recorded %q", name, plan.Digest, want)
		}
	}
}

// checkYAMLValue walks a parsed document: only maps, lists, strings and nil
// (an empty value) may appear in one.
func checkYAMLValue(t *testing.T, v any) {
	switch v := v.(type) {
	case nil, string:
	case map[string]any:
		for _, e := range v {
			checkYAMLValue(t, e)
		}
	case []any:
		for _, e := range v {
			checkYAMLValue(t, e)
		}
	default:
		t.Fatalf("parseYAML produced a %T", v)
	}
}

// FuzzParseYAML feeds the scenario parser arbitrary bytes — a scenario file is
// operator input to cordial-chaos: it must return (the fuzz engine's deadline
// catches a parser that stops consuming lines), never panic, and produce only
// the value shapes the scenario decoder handles; ParseScenario on the same
// bytes must not panic either. Seeded with every checked-in scenario.
func FuzzParseYAML(f *testing.F) {
	for _, data := range checkedInScenarios(f) {
		f.Add(data)
	}
	f.Add([]byte("a:\n- b: 1\n  c:\n  - d\n-\n  - e: 'x # y'\n"))
	f.Add([]byte("-\n-\n  -\n    - k:\n"))
	f.Add([]byte("k: \"v\" # c\nk2:\n    deep:\n  shallow: 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := parseYAML(data)
		if err == nil {
			if doc == nil {
				t.Fatal("parseYAML returned neither a document nor an error")
			}
			checkYAMLValue(t, doc)
		}
		if sc, err := ParseScenario(data); err == nil && sc == nil {
			t.Fatal("ParseScenario returned neither a scenario nor an error")
		}
	})
}
