package chaos

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cordial/internal/hbm"
)

// minimalScenario is the smallest valid scenario, edited per test case.
func minimalScenario() *Scenario {
	sc := NewScenario("t", "", 5)
	sc.FleetGen.Templates = []TemplateSpec{{"a", 1, "single"}}
	return sc
}

func TestParseScenarioDefaults(t *testing.T) {
	sc := minimalScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Fleet.Nodes != 1 || sc.Fleet.Fsync != "never" || sc.Load.Codec != "wire" {
		t.Errorf("defaults not applied: %+v", sc.Fleet)
	}
	if sc.Fleet.Startup.Pattern != "instant" {
		t.Errorf("startup default = %q", sc.Fleet.Startup.Pattern)
	}
	if sc.SLO.ReadyzAvailability != -1 {
		t.Errorf("readyz SLO should default to disabled, got %v", sc.SLO.ReadyzAvailability)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	kill := func(target string) []ChaosAction {
		return []ChaosAction{{At: time.Second, Action: ActKillNode, Target: target}}
	}
	cases := []struct {
		name string
		edit func(*Scenario)
		want string
	}{
		{"no name", func(sc *Scenario) { sc.Name = "" }, "name is required"},
		{"zero seed", func(sc *Scenario) { sc.Seed = 0 }, "seed"},
		{"bad pattern", func(sc *Scenario) { sc.FleetGen.Templates[0].Pattern = "zigzag" }, "unknown pattern"},
		{"bad fsync", func(sc *Scenario) { sc.Fleet.Fsync = "sometimes" }, "fsync"},
		{"deleted interval fsync", func(sc *Scenario) { sc.Fleet.Fsync = "interval" }, "fsync"},
		{"bad codec", func(sc *Scenario) { sc.Load.Codec = "csv" }, "codec"},
		{"bad startup", func(sc *Scenario) { sc.Fleet.Startup.Pattern = "explode" }, "startup.pattern"},
		{"unarmed faultfs", func(sc *Scenario) { sc.Fleet.FaultFS = " " }, "arms nothing"},
		{"kill without target", func(sc *Scenario) { sc.Chaos = kill("") }, "target is required"},
		{"kill out of range", func(sc *Scenario) { sc.Chaos = kill("node-9") }, "out of range"},
		{"disk fault without faultfs", func(sc *Scenario) {
			sc.Chaos = []ChaosAction{{At: time.Second, Action: ActDiskFault, Target: "node-1"}}
		}, "needs fleet.faultfs"},
		{"skew without offset", func(sc *Scenario) {
			sc.Chaos = []ChaosAction{{At: time.Second, Action: ActClockSkew, Duration: 2 * time.Second}}
		}, "clock_skew"},
		{"skew vs verdict loss", func(sc *Scenario) {
			sc.Chaos = []ChaosAction{{At: time.Second, Action: ActClockSkew, Duration: 2 * time.Second, Offset: time.Hour}}
			sc.SLO.ZeroVerdictLoss = true
		}, "determinism"},
		{"partition on one node", func(sc *Scenario) {
			sc.Chaos = []ChaosAction{{At: time.Second, Action: ActPartitionRouter, Duration: 2 * time.Second}}
		}, "nodes >= 2"},
		{"recovery without kill", func(sc *Scenario) { sc.SLO.RecoveryTime = 10 * time.Second }, "no kill_node"},
		{"swap slo without trigger", func(sc *Scenario) { sc.SLO.MinModelSwaps = 1 }, "nothing triggers"},
	}
	for _, tc := range cases {
		sc := minimalScenario()
		tc.edit(sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// scenarioSHA256 is the SHA-256 of each checked-in scenario's %#v as the YAML
// parser the Go values replaced read it from its scenario file, so each value
// is its file field for field.
var scenarioSHA256 = map[string]string{
	"chaos-during-model-swap": "47f42628cc664253e70f07276f5244bf3a98eca238e4cd61e524ed611fcb1020",
	"ci-smoke":                "2be43228cb2de6c570818948be3b8d7ed6da470979f9e4f5ff3e3300654a6770",
	"cluster-kill-one":        "010e8f3d5a199c04608d812c56534f32c63a4818bef5bd0d694e42aee50f1452",
	"poison-storm":            "75e8f5829972cf5441528ee0ac5ac9657dae7d6a3b540237a9f8f72130560175",
}

// TestCheckedInScenarios keeps every checked-in scenario valid and equal to
// the file it was, and each reachable by its name: a scenario that no longer
// validates is a broken deliverable even when no chaos run executes in CI.
func TestCheckedInScenarios(t *testing.T) {
	scs := Scenarios()
	if len(scs) != len(scenarioSHA256) {
		t.Fatalf("%d scenarios, %d recorded", len(scs), len(scenarioSHA256))
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", *sc)))); got != scenarioSHA256[sc.Name] {
			t.Errorf("%s: hashes to %s, recorded %q", sc.Name, got, scenarioSHA256[sc.Name])
		}
		if byName, err := ScenarioByName(sc.Name); err != nil || !reflect.DeepEqual(byName, sc) {
			t.Errorf("ScenarioByName(%q) = %v, %v", sc.Name, byName, err)
		}
	}
	if _, err := ScenarioByName("ci-smoke.yaml"); err == nil {
		t.Error("ScenarioByName found a scenario by its old file name")
	}
}

// scenarioDigests pins the plan each checked-in scenario resolves to (events
// and chaos schedule, FNV-1a), as recorded when the scenarios were files.
var scenarioDigests = map[string]string{
	"chaos-during-model-swap": "4f990ce0bd017fce",
	"ci-smoke":                "eb3b1a8b5e0e7c01",
	"cluster-kill-one":        "191b28fc3bc90902",
	"poison-storm":            "d3707af13acbdc91",
}

// TestScenarioPlanDigests runs every checked-in scenario through the plan
// builder and requires the digest recorded above; a new scenario must record
// one.
func TestScenarioPlanDigests(t *testing.T) {
	for _, sc := range Scenarios() {
		plan, err := BuildPlan(sc, hbm.HBM2E)
		if err != nil {
			t.Errorf("%s: %v", sc.Name, err)
			continue
		}
		if want, ok := scenarioDigests[sc.Name]; !ok || plan.Digest != want {
			t.Errorf("%s: plan digest %s, recorded %q", sc.Name, plan.Digest, want)
		}
	}
}
