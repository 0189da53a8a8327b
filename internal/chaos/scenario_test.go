package chaos

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// minimalScenario is the smallest valid document, mutated per test case.
const minimalScenario = `
name: t
seed: 5
fleet_gen:
  templates:
    - name: a
      weight: 1
      pattern: single
`

func TestParseScenarioDefaults(t *testing.T) {
	sc, err := ParseScenario([]byte(minimalScenario))
	if err != nil {
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

func TestParseScenarioFull(t *testing.T) {
	sc, err := ParseScenario([]byte(`
name: full
description: everything set
seed: 99
fleet:
  nodes: 3
  train_banks: 25
  trees: 9
  train_seed: 11
  fsync: always
  faultfs: sync-fail=2
  retrain: true
  heartbeat: 150ms
  heartbeat_ttl: 2s
  sweep_interval: 400ms
  router_max_attempts: 5
  router_refresh: 250ms
  startup:
    pattern: wave
    spacing: 100ms
    wave_size: 2
fleet_gen:
  total_banks: 40
  templates:
    - name: agg
      weight: 3
      pattern: single
    - name: noise
      weight: 1
      pattern: benign
load:
  events_per_sec: 800
  batch: 64
  codec: jsonl
  phases:
    - name: spike
      duration: 2s
      rate: 2000
chaos:
  - at: 1s
    action: kill_node
    target: node-3
  - at: 2s
    action: disk_fault
    target: node-1
  - at: 3s
    action: promote
    target: node-2
    version: 2
slo:
  p99_ingest_latency: 3s
  recovery_time: 20s
  readyz_availability: 0.95
  min_model_swaps: 1
report:
  json: out.json
  html: out.html
`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fleet.Nodes != 3 || !sc.Fleet.Retrain || sc.Fleet.Startup.WaveSize != 2 {
		t.Errorf("fleet mis-parsed: %+v", sc.Fleet)
	}
	if sc.Fleet.Heartbeat != 150*time.Millisecond || sc.Fleet.HeartbeatTTL != 2*time.Second {
		t.Errorf("durations mis-parsed: %+v", sc.Fleet)
	}
	if len(sc.FleetGen.Templates) != 2 || sc.FleetGen.Templates[0].Weight != 3 {
		t.Errorf("templates mis-parsed: %+v", sc.FleetGen)
	}
	if len(sc.Chaos) != 3 || sc.Chaos[2].Version != 2 {
		t.Errorf("chaos mis-parsed: %+v", sc.Chaos)
	}
	if sc.SLO.ReadyzAvailability != 0.95 || sc.Report.HTML != "out.html" {
		t.Errorf("slo/report mis-parsed: %+v %+v", sc.SLO, sc.Report)
	}
}

func TestParseScenarioRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no name", "seed: 1\nfleet_gen:\n  templates:\n    - name: a\n      weight: 1\n      pattern: single", "name is required"},
		{"zero seed", strings.Replace(minimalScenario, "seed: 5", "seed: 0", 1), "seed"},
		{"unknown root key", minimalScenario + "bogus: 1\n", "unknown key"},
		{"unknown fleet key", minimalScenario + "fleet:\n  wheels: 4\n", "unknown key"},
		{"bad pattern", strings.Replace(minimalScenario, "pattern: single", "pattern: zigzag", 1), "unknown pattern"},
		{"bad fsync", minimalScenario + "fleet:\n  fsync: sometimes\n", "fsync"},
		{"deleted interval fsync", minimalScenario + "fleet:\n  fsync: interval\n", "fsync"},
		{"bad codec", minimalScenario + "load:\n  codec: csv\n", "codec"},
		{"bad startup", minimalScenario + "fleet:\n  startup:\n    pattern: explode\n", "startup.pattern"},
		{"unarmed faultfs", minimalScenario + "fleet:\n  faultfs: \" \"\n", "arms nothing"},
		{"kill without target", minimalScenario + "chaos:\n  - at: 1s\n    action: kill_node\n", "target is required"},
		{"kill out of range", minimalScenario + "chaos:\n  - at: 1s\n    action: kill_node\n    target: node-9\n", "out of range"},
		{"disk fault without faultfs", minimalScenario + "chaos:\n  - at: 1s\n    action: disk_fault\n    target: node-1\n", "needs fleet.faultfs"},
		{"skew without offset", minimalScenario + "chaos:\n  - at: 1s\n    action: clock_skew\n    duration: 2s\n", "clock_skew"},
		{"skew vs verdict loss", minimalScenario + "chaos:\n  - at: 1s\n    action: clock_skew\n    duration: 2s\n    offset: 1h\nslo:\n  zero_verdict_loss: true\n", "determinism"},
		{"partition on one node", minimalScenario + "chaos:\n  - at: 1s\n    action: partition_router\n    duration: 2s\n", "nodes >= 2"},
		{"recovery without kill", minimalScenario + "slo:\n  recovery_time: 10s\n", "no kill_node"},
		{"swap slo without trigger", minimalScenario + "slo:\n  min_model_swaps: 1\n", "nothing triggers"},
	}
	for _, tc := range cases {
		_, err := ParseScenario([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckedInScenarios keeps every scenario shipped under scenarios/
// loadable: a scenario that no longer parses is a broken deliverable
// even when no chaos run executes in CI.
func TestCheckedInScenarios(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 3 {
		t.Fatalf("want at least 3 checked-in scenarios, found %d", len(matches))
	}
	names := map[string]bool{}
	for _, path := range matches {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		names[sc.Name] = true
	}
	for _, required := range []string{"cluster-kill-one", "chaos-during-model-swap", "ci-smoke"} {
		if !names[required] {
			t.Errorf("required scenario %q missing from scenarios/", required)
		}
	}
}
