// Package chaos is the stress harness behind cordial-chaos: it runs a named
// scenario (scenarios.go) through the real daemons over the wire codec,
// generating workloads from weighted templates, injecting failures on a
// timeline (SIGKILL, disk faults, clock skew, poison, router partitions) and
// asserting SLOs scraped from the daemons' /metrics and /statsz.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/wal"
)

// Scenario is one fully parsed chaos scenario: the fleet to start, the
// workload to generate, the failures to inject, and the SLOs that decide
// pass/fail.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64

	Fleet    FleetSpec
	FleetGen FleetGenSpec
	Load     LoadSpec
	Chaos    []ChaosAction
	SLO      SLOSpec
	Report   ReportSpec
}

// FleetSpec describes the daemon topology. Nodes==1 runs a standalone
// cordial-serve; Nodes>1 runs a control plane, N serve nodes, and a
// router in front.
type FleetSpec struct {
	Nodes      int
	TrainBanks int
	Trees      int
	TrainSeed  uint64
	Topology   string // registered hbm profile name; empty means hbm2e
	Fsync      string // cordial-serve -fsync policy: always|never
	FaultFS    string // wal.FaultSpec armed/disarmed via SIGUSR2
	Retrain    bool   // enable the drift retrain loop on serve nodes

	Heartbeat        time.Duration
	HeartbeatTTL     time.Duration
	SweepInterval    time.Duration
	RouterMaxAttempt int
	RouterRefresh    time.Duration

	Startup StartupSpec
}

// StartupSpec controls how serve nodes come up.
type StartupSpec struct {
	Pattern  string        // instant | staggered | wave
	Spacing  time.Duration // staggered: gap between node starts
	WaveSize int           // wave: nodes per wave, Spacing between waves
}

// FleetGenSpec describes the synthetic workload: TotalBanks banks drawn
// across the geometry, each stamped with a weighted fault template.
type FleetGenSpec struct {
	TotalBanks int
	Templates  []TemplateSpec
}

// TemplateSpec is one weighted fault template. Pattern names match
// cordial-gen: single, double, half, scattered, wholecol, plus "mixed"
// (sample from the faultsim default weights) and "benign" (correctable
// noise that must not produce a verdict).
type TemplateSpec struct {
	Name    string
	Weight  float64
	Pattern string
}

// LoadSpec shapes event delivery.
type LoadSpec struct {
	EventsPerSec int
	Batch        int
	Codec        string // wire | jsonl: which of the daemons' two ingest endpoints is loaded
	Phases       []LoadPhase
}

// LoadPhase overrides the base rate for a window; phases run in order.
type LoadPhase struct {
	Name     string
	Duration time.Duration
	Rate     int // events/sec during the phase; 0 means the base rate
}

// ChaosAction is one scheduled injection.
type ChaosAction struct {
	At       time.Duration // offset from the start of load
	Action   string
	Target   string        // node-1..node-N | control | router | random
	Count    int           // poison: events to inject (default 32)
	Duration time.Duration // clock_skew / partition_router window
	Offset   time.Duration // clock_skew: shift applied to timestamps
	Version  int           // promote: explicit version (0 = shadow candidate)
}

// Chaos action verbs.
const (
	ActKillNode        = "kill_node"
	ActRestartNode     = "restart_node"
	ActDiskFault       = "disk_fault"
	ActClearFault      = "clear_fault"
	ActClockSkew       = "clock_skew"
	ActPoison          = "poison"
	ActPartitionRouter = "partition_router"
	ActRetrain         = "retrain"
	ActPromote         = "promote"
)

// SLOSpec is the pass/fail contract evaluated after the run.
type SLOSpec struct {
	P99IngestLatency   time.Duration // 0 disables
	RecoveryTime       time.Duration // kill -> takeover + readyz; 0 disables
	ReadyzAvailability float64       // fraction of probe samples that were 200
	ZeroVerdictLoss    bool          // compare fleet verdicts to a reference run
	MaxPoisonAccepted  int           // poisoned events the stack may accept
	MinModelSwaps      int           // model promotions observed via /statsz
}

// ReportSpec names the output artifacts.
type ReportSpec struct {
	JSON string
	HTML string
}

// NewScenario returns a scenario with the given name, description and seed
// and every other field at its default, chosen so that a scenario that also
// names its fleet_gen templates is a real run.
func NewScenario(name, description string, seed uint64) *Scenario {
	return &Scenario{
		Name: name, Description: description, Seed: seed,
		Fleet: FleetSpec{
			Nodes: 1, TrainBanks: 30, Trees: 8, TrainSeed: 7, Fsync: "never",
			Heartbeat: 100 * time.Millisecond, HeartbeatTTL: time.Second,
			SweepInterval:    300 * time.Millisecond,
			RouterMaxAttempt: 8, RouterRefresh: 200 * time.Millisecond,
			Startup: StartupSpec{Pattern: "instant", Spacing: 200 * time.Millisecond, WaveSize: 2},
		},
		FleetGen: FleetGenSpec{TotalBanks: 100},
		Load:     LoadSpec{EventsPerSec: 2000, Batch: 256, Codec: "wire"},
		SLO:      SLOSpec{ReadyzAvailability: -1},
	}
}

// Validate checks that every field holds a value the runner accepts and
// that the fields agree with each other.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if s.Seed == 0 {
		return fmt.Errorf("scenario: seed must be nonzero")
	}
	f := &s.Fleet
	if f.Nodes < 1 || f.Nodes > 16 {
		return fmt.Errorf("scenario: fleet.nodes %d out of range [1,16]", f.Nodes)
	}
	if f.TrainBanks < 1 || f.Trees < 1 {
		return fmt.Errorf("scenario: fleet.train_banks and fleet.trees must be >= 1")
	}
	if f.Topology != "" {
		if _, err := hbm.ProfileByName(f.Topology); err != nil {
			return fmt.Errorf("scenario: fleet.topology: %w", err)
		}
	}
	if _, err := wal.ParseSyncPolicy(f.Fsync); err != nil {
		return fmt.Errorf("scenario: fleet.fsync: %w", err)
	}
	if f.FaultFS != "" {
		spec, err := wal.ParseFaultSpec(f.FaultFS)
		if err != nil {
			return fmt.Errorf("scenario: fleet.faultfs: %w", err)
		}
		if !spec.Armed() {
			return fmt.Errorf("scenario: fleet.faultfs %q arms nothing", f.FaultFS)
		}
	}
	switch f.Startup.Pattern {
	case "instant", "staggered", "wave":
	default:
		return fmt.Errorf("scenario: fleet.startup.pattern %q (want instant|staggered|wave)", f.Startup.Pattern)
	}
	if f.Startup.Pattern == "wave" && f.Startup.WaveSize < 1 {
		return fmt.Errorf("scenario: fleet.startup.wave_size must be >= 1")
	}

	if s.FleetGen.TotalBanks < 1 {
		return fmt.Errorf("scenario: fleet_gen.total_banks must be >= 1")
	}
	if len(s.FleetGen.Templates) == 0 {
		return fmt.Errorf("scenario: fleet_gen.templates must not be empty")
	}
	totalWeight := 0.0
	for i, t := range s.FleetGen.Templates {
		if t.Name == "" {
			return fmt.Errorf("scenario: fleet_gen.templates[%d]: name is required", i)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("scenario: template %q: weight must be > 0", t.Name)
		}
		totalWeight += t.Weight
		switch t.Pattern {
		case "single", "double", "half", "scattered", "wholecol", "mixed", "benign":
		default:
			return fmt.Errorf("scenario: template %q: unknown pattern %q", t.Name, t.Pattern)
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("scenario: template weights sum to zero")
	}

	if s.Load.EventsPerSec < 1 {
		return fmt.Errorf("scenario: load.events_per_sec must be >= 1")
	}
	if s.Load.Batch < 1 {
		return fmt.Errorf("scenario: load.batch must be >= 1")
	}
	switch s.Load.Codec {
	case "wire", "jsonl":
	default:
		return fmt.Errorf("scenario: load.codec %q (want wire|jsonl)", s.Load.Codec)
	}
	for i, ph := range s.Load.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("scenario: load.phases[%d] (%s): duration must be > 0", i, ph.Name)
		}
		if ph.Rate < 0 {
			return fmt.Errorf("scenario: load.phases[%d] (%s): rate must be >= 0", i, ph.Name)
		}
	}

	for i, a := range s.Chaos {
		if a.At < 0 {
			return fmt.Errorf("scenario: chaos[%d]: at must be >= 0", i)
		}
		switch a.Action {
		case ActKillNode, ActRestartNode:
			if err := validTarget(a.Target, f.Nodes, true); err != nil {
				return fmt.Errorf("scenario: chaos[%d] %s: %w", i, a.Action, err)
			}
		case ActDiskFault:
			if f.FaultFS == "" {
				return fmt.Errorf("scenario: chaos[%d]: disk_fault needs fleet.faultfs", i)
			}
			if err := validTarget(a.Target, f.Nodes, false); err != nil {
				return fmt.Errorf("scenario: chaos[%d] disk_fault: %w", i, err)
			}
		case ActClearFault:
			if err := validTarget(a.Target, f.Nodes, false); err != nil {
				return fmt.Errorf("scenario: chaos[%d] clear_fault: %w", i, err)
			}
		case ActClockSkew:
			if a.Duration <= 0 || a.Offset == 0 {
				return fmt.Errorf("scenario: chaos[%d]: clock_skew needs duration > 0 and offset != 0", i)
			}
			if s.SLO.ZeroVerdictLoss {
				return fmt.Errorf("scenario: chaos[%d]: clock_skew breaks slo.zero_verdict_loss determinism; disable one", i)
			}
		case ActPoison:
			// Count defaults at run time.
		case ActPartitionRouter:
			if f.Nodes < 2 {
				return fmt.Errorf("scenario: chaos[%d]: partition_router needs fleet.nodes >= 2", i)
			}
			if a.Duration <= 0 {
				return fmt.Errorf("scenario: chaos[%d]: partition_router needs duration > 0", i)
			}
		case ActRetrain, ActPromote:
			if err := validTarget(a.Target, f.Nodes, false); err != nil {
				return fmt.Errorf("scenario: chaos[%d] %s: %w", i, a.Action, err)
			}
		default:
			return fmt.Errorf("scenario: chaos[%d]: unknown action %q", i, a.Action)
		}
	}

	if s.SLO.RecoveryTime > 0 && !s.hasAction(ActKillNode) {
		return fmt.Errorf("scenario: slo.recovery_time set but no kill_node action scheduled")
	}
	if s.SLO.RecoveryTime > 0 && f.Nodes < 2 {
		return fmt.Errorf("scenario: slo.recovery_time needs fleet.nodes >= 2 (takeover)")
	}
	if s.SLO.ReadyzAvailability > 1 {
		return fmt.Errorf("scenario: slo.readyz_availability must be <= 1.0")
	}
	if s.SLO.MinModelSwaps > 0 && !s.hasAction(ActPromote) && !f.Retrain {
		return fmt.Errorf("scenario: slo.min_model_swaps set but nothing triggers a swap (promote action or fleet.retrain)")
	}
	return nil
}

func (s *Scenario) hasAction(verb string) bool {
	for _, a := range s.Chaos {
		if a.Action == verb {
			return true
		}
	}
	return false
}

// validTarget checks "node-N", "random", or (for non-node-only verbs)
// "control" / "router". allowRandom is implied; nodeOnly restricts the
// verbs that act through WAL/model endpoints to serve nodes.
func validTarget(target string, nodes int, allowInfra bool) error {
	switch target {
	case "":
		return fmt.Errorf("target is required")
	case "random":
		return nil
	case "control", "router":
		if allowInfra {
			return nil
		}
		return fmt.Errorf("target %q is not a serve node", target)
	}
	n, ok := strings.CutPrefix(target, "node-")
	if !ok {
		return fmt.Errorf("unknown target %q", target)
	}
	idx, err := strconv.Atoi(n)
	if err != nil || idx < 1 || idx > nodes {
		return fmt.Errorf("target %q out of range (fleet has %d nodes)", target, nodes)
	}
	return nil
}
