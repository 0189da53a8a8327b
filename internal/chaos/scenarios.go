package chaos

import (
	"fmt"
	"time"
)

// Scenarios returns the checked-in scenarios, freshly built (a run may
// override a seed), in name order.
func Scenarios() []*Scenario {
	return []*Scenario{chaosDuringModelSwap(), ciSmoke(), clusterKillOne(), poisonStorm()}
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

// chaosDuringModelSwap: a standalone node hot-swaps its model while under
// full ingest load and poisoned traffic. The swap must be invisible at the
// front door: /readyz stays 200 through the retrain and promotion, at least
// one swap lands, and nothing poisoned is accepted.
func chaosDuringModelSwap() *Scenario {
	sc := NewScenario("chaos-during-model-swap",
		"retrain and promote a model mid-ingest; availability must hold through the swap", 42)
	sc.Fleet.Retrain = true // enables the lifecycle manager and /v1/models admin
	sc.FleetGen = FleetGenSpec{TotalBanks: 50, Templates: []TemplateSpec{
		{"aggregation", 60, "single"}, {"mixed", 25, "mixed"}, {"quiet", 15, "benign"}}}
	sc.Load = LoadSpec{EventsPerSec: 500, Batch: 128, Codec: "wire", Phases: []LoadPhase{
		{"steady", 10 * time.Second, 0}, {"spike", 5 * time.Second, 1500}}}
	sc.Chaos = []ChaosAction{
		{At: 2 * time.Second, Action: ActRetrain, Target: "node-1"},
		{At: 4 * time.Second, Action: ActPromote, Target: "node-1"},
		{At: 6 * time.Second, Action: ActPoison, Target: "node-1", Count: 64},
	}
	sc.SLO = SLOSpec{ReadyzAvailability: 1, MinModelSwaps: 1, P99IngestLatency: 5 * time.Second}
	sc.Report = ReportSpec{"chaos-model-swap.json", "chaos-model-swap.html"}
	return sc
}

// ciSmoke is the ~30 s CI smoke: a two-node cluster with one kill and a
// poison burst. Small fleet, short phases — just enough to prove the harness
// end to end (fleet bring-up, wire-codec load, failover, SLO scoring).
func ciSmoke() *Scenario {
	sc := NewScenario("ci-smoke", "30-second two-node smoke with one SIGKILL and a poison burst", 7)
	sc.Fleet.Nodes, sc.Fleet.TrainBanks, sc.Fleet.Trees = 2, 20, 6
	sc.FleetGen = FleetGenSpec{TotalBanks: 30, Templates: []TemplateSpec{
		{"aggregation", 60, "single"}, {"spread", 15, "scattered"}, {"quiet", 25, "benign"}}}
	sc.Load = LoadSpec{EventsPerSec: 600, Batch: 128, Codec: "wire", Phases: []LoadPhase{
		{"steady", 6 * time.Second, 0}, {"spike", 3 * time.Second, 1500}}}
	sc.Chaos = []ChaosAction{
		{At: 3 * time.Second, Action: ActKillNode, Target: "node-2"},
		{At: 5 * time.Second, Action: ActPoison, Target: "node-1", Count: 32},
	}
	sc.SLO = SLOSpec{RecoveryTime: 30 * time.Second, ReadyzAvailability: 0.85, ZeroVerdictLoss: true}
	sc.Report = ReportSpec{"chaos-ci-smoke.json", "chaos-ci-smoke.html"}
	return sc
}

// clusterKillOne: three serve nodes behind cordial-router, one SIGKILLed
// mid-stream. The control plane must sweep the dead member and rebuild its
// sessions on the survivors from its journal, the router must ride out the
// failover on its bounded retries, and the surviving fleet's deduplicated
// action set must equal a single clean reference node's — zero verdict loss.
func clusterKillOne() *Scenario {
	sc := NewScenario("cluster-kill-one",
		"kill one of three serve nodes mid-stream; verdicts must survive via journal takeover", 42)
	sc.Fleet.Nodes, sc.Fleet.Startup.Pattern = 3, "staggered"
	sc.FleetGen = FleetGenSpec{TotalBanks: 60, Templates: []TemplateSpec{
		{"aggregation", 55, "single"}, {"paired", 15, "double"}, {"spread", 10, "scattered"}, {"quiet", 20, "benign"}}}
	sc.Load = LoadSpec{EventsPerSec: 400, Batch: 128, Codec: "wire", Phases: []LoadPhase{
		{"warmup", 3 * time.Second, 200}, {"steady", 8 * time.Second, 0}, {"spike", 4 * time.Second, 1200}}}
	sc.Chaos = []ChaosAction{{At: 6 * time.Second, Action: ActKillNode, Target: "node-2"}}
	sc.SLO = SLOSpec{RecoveryTime: 30 * time.Second, ReadyzAvailability: 0.9, ZeroVerdictLoss: true, P99IngestLatency: 5 * time.Second}
	sc.Report = ReportSpec{"chaos-cluster-kill-one.json", "chaos-cluster-kill-one.html"}
	return sc
}

// poisonStorm: adversarial conditions at fleet scale — 10k banks (mostly
// benign noise) across two nodes, with poisoned batches, a skewed producer
// clock, disk faults armed in one node's WAL path, and a frozen router
// window. The stack must reject every poisoned event, keep quarantine at
// zero, and stay available outside the deliberate partition window.
func poisonStorm() *Scenario {
	sc := NewScenario("poison-storm", "10k-bank fleet under poison, clock skew, disk faults and a router freeze", 1337)
	sc.Fleet.Nodes, sc.Fleet.FaultFS = 2, "sync-fail=3"
	sc.Fleet.Startup = StartupSpec{Pattern: "wave", Spacing: 300 * time.Millisecond, WaveSize: 1}
	sc.FleetGen = FleetGenSpec{TotalBanks: 10000, Templates: []TemplateSpec{
		{"quiet", 96, "benign"}, {"aggregation", 2.5, "single"}, {"spread", 1, "scattered"}, {"columns", 0.5, "wholecol"}}}
	sc.Load = LoadSpec{EventsPerSec: 4000, Batch: 512, Codec: "wire", Phases: []LoadPhase{
		{"ramp", 5 * time.Second, 2000}, {"storm", 20 * time.Second, 6000}, {"cooldown", 5 * time.Second, 1500}}}
	sc.Chaos = []ChaosAction{
		{At: 3 * time.Second, Action: ActPoison, Target: "node-1", Count: 128},
		// The producer clock a year behind: still within sanity bounds.
		{At: 6 * time.Second, Action: ActClockSkew, Duration: 5 * time.Second, Offset: -8760 * time.Hour},
		{At: 9 * time.Second, Action: ActDiskFault, Target: "node-2"},
		{At: 14 * time.Second, Action: ActClearFault, Target: "node-2"},
		{At: 16 * time.Second, Action: ActPartitionRouter, Duration: 2 * time.Second},
		{At: 20 * time.Second, Action: ActPoison, Target: "random", Count: 128},
	}
	sc.SLO = SLOSpec{ReadyzAvailability: 0.8, P99IngestLatency: 10 * time.Second}
	sc.Report = ReportSpec{"chaos-poison-storm.json", "chaos-poison-storm.html"}
	return sc
}
