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
	if sc.Fleet.Nodes != 2 || sc.Load.Batch != 256 {
		t.Errorf("defaults not applied: %+v %+v", sc.Fleet, sc.Load)
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
		{"one node", func(sc *Scenario) { sc.Fleet.Nodes = 1 }, "out of range [2,16]"},
		{"bad pattern", func(sc *Scenario) { sc.FleetGen.Templates[0].Pattern = "zigzag" }, "unknown pattern"},
		{"kill without target", func(sc *Scenario) { sc.Chaos = kill("") }, "target is required"},
		{"kill out of range", func(sc *Scenario) { sc.Chaos = kill("node-9") }, "out of range"},
		{"kill of the router", func(sc *Scenario) { sc.Chaos = kill("router") }, "unknown target"},
		{"deleted verb", func(sc *Scenario) {
			sc.Chaos = []ChaosAction{{At: time.Second, Action: "disk_fault", Target: "node-1"}}
		}, "unknown action"},
		{"recovery without kill", func(sc *Scenario) { sc.SLO.RecoveryTime = 10 * time.Second }, "no kill_node"},
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

// scenarioSHA256 is the SHA-256 of each checked-in scenario's %#v: a change
// to a scenario, or to the fields of Scenario, records its hash anew.
var scenarioSHA256 = map[string]string{
	"ci-smoke": "2c60987ecc538f0d0f860b861d7744325c8d9c67952d614e94b418c9691187a7",
}

// TestCheckedInScenarios keeps every checked-in scenario valid and equal to
// its recorded hash, and each reachable by its name: a scenario that no longer
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
	"ci-smoke": "eb3b1a8b5e0e7c01",
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
