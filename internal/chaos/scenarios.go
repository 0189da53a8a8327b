package chaos

import (
	"fmt"
	"time"
)

// Scenarios returns the checked-in scenarios, freshly built (a run may
// override a seed), in name order.
func Scenarios() []*Scenario {
	return []*Scenario{ciSmoke()}
}

// ScenarioByName returns the checked-in scenario called name, validated.
func ScenarioByName(name string) (*Scenario, error) {
	var names []string
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, sc.Validate()
		}
		names = append(names, sc.Name)
	}
	return nil, fmt.Errorf("chaos: no scenario %q (have %v)", name, names)
}

// ciSmoke is the ~30 s CI smoke: a two-node cluster with one kill and a
// poison burst. Small fleet, short phases — just enough to prove the harness
// end to end (fleet bring-up, wire-codec load, failover, SLO scoring).
func ciSmoke() *Scenario {
	sc := NewScenario("ci-smoke", "30-second two-node smoke with one SIGKILL and a poison burst", 7)
	sc.Fleet.Nodes, sc.Fleet.TrainBanks, sc.Fleet.Trees = 2, 20, 6
	sc.FleetGen = FleetGenSpec{TotalBanks: 30, Templates: []TemplateSpec{
		{"aggregation", 60, "single"}, {"spread", 15, "scattered"}, {"quiet", 25, "benign"}}}
	sc.Load = LoadSpec{EventsPerSec: 600, Batch: 128, Phases: []LoadPhase{
		{"steady", 6 * time.Second, 0}, {"spike", 3 * time.Second, 1500}}}
	sc.Chaos = []ChaosAction{
		{At: 3 * time.Second, Action: ActKillNode, Target: "node-2"},
		{At: 5 * time.Second, Action: ActPoison, Target: "node-1", Count: 32},
	}
	sc.SLO = SLOSpec{RecoveryTime: 30 * time.Second, ReadyzAvailability: 0.85, ZeroVerdictLoss: true}
	sc.Report = ReportSpec{"chaos-ci-smoke.json", "chaos-ci-smoke.html"}
	return sc
}
