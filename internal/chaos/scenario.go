// Package chaos is the real-binary smoke behind cordial-chaos: it runs a
// named scenario (scenarios.go) through the real daemons — a control plane,
// serve nodes and a router — over the wire codec, generating workloads from
// weighted templates, injecting what needs a real process (SIGKILL of a serve
// node, poison at the front door) on a timeline, and asserting SLOs read off
// the daemons' /readyz, /statsz and /v1/actions. Every other failure is
// injected in process: disk faults, partitions and membership churn by the
// cluster's fleet simulation, the rest by the tests of the code they break.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
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

// FleetSpec describes the daemon topology: a control plane, Nodes serve
// nodes self-trained on TrainBanks banks into Trees trees, and a router in
// front.
type FleetSpec struct {
	Nodes      int
	TrainBanks int
	Trees      int
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

// LoadSpec shapes event delivery, as wire frames to the router.
type LoadSpec struct {
	EventsPerSec int
	Batch        int
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
	At     time.Duration // offset from the start of load
	Action string
	Target string // node-1..node-N | random
	Count  int    // poison: events to inject (default 32)
}

// Chaos action verbs: the failures only a real process shows.
const (
	ActKillNode = "kill_node"
	ActPoison   = "poison"
)

// SLOSpec is the pass/fail contract evaluated after the run.
type SLOSpec struct {
	RecoveryTime       time.Duration // kill -> takeover + readyz; 0 disables
	ReadyzAvailability float64       // fraction of probe samples that were 200
	ZeroVerdictLoss    bool          // compare fleet verdicts to a reference run
	MaxPoisonAccepted  int           // poisoned events the stack may accept
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
		Fleet:    FleetSpec{Nodes: 2, TrainBanks: 30, Trees: 8},
		FleetGen: FleetGenSpec{TotalBanks: 100},
		Load:     LoadSpec{EventsPerSec: 2000, Batch: 256},
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
	if f.Nodes < 2 || f.Nodes > 16 {
		return fmt.Errorf("scenario: fleet.nodes %d out of range [2,16]", f.Nodes)
	}
	if f.TrainBanks < 1 || f.Trees < 1 {
		return fmt.Errorf("scenario: fleet.train_banks and fleet.trees must be >= 1")
	}

	if s.FleetGen.TotalBanks < 1 {
		return fmt.Errorf("scenario: fleet_gen.total_banks must be >= 1")
	}
	if len(s.FleetGen.Templates) == 0 {
		return fmt.Errorf("scenario: fleet_gen.templates must not be empty")
	}
	for i, t := range s.FleetGen.Templates {
		if t.Name == "" {
			return fmt.Errorf("scenario: fleet_gen.templates[%d]: name is required", i)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("scenario: template %q: weight must be > 0", t.Name)
		}
		switch t.Pattern {
		case "single", "double", "half", "scattered", "wholecol", "mixed", "benign":
		default:
			return fmt.Errorf("scenario: template %q: unknown pattern %q", t.Name, t.Pattern)
		}
	}

	if s.Load.EventsPerSec < 1 {
		return fmt.Errorf("scenario: load.events_per_sec must be >= 1")
	}
	if s.Load.Batch < 1 {
		return fmt.Errorf("scenario: load.batch must be >= 1")
	}
	for i, ph := range s.Load.Phases {
		if ph.Duration <= 0 {
			return fmt.Errorf("scenario: load.phases[%d] (%s): duration must be > 0", i, ph.Name)
		}
		if ph.Rate < 0 {
			return fmt.Errorf("scenario: load.phases[%d] (%s): rate must be >= 0", i, ph.Name)
		}
	}

	kills := false
	for i, a := range s.Chaos {
		if a.At < 0 {
			return fmt.Errorf("scenario: chaos[%d]: at must be >= 0", i)
		}
		switch a.Action {
		case ActKillNode:
			if err := validTarget(a.Target, f.Nodes); err != nil {
				return fmt.Errorf("scenario: chaos[%d] %s: %w", i, a.Action, err)
			}
			kills = true
		case ActPoison:
			// Count defaults at run time.
		default:
			return fmt.Errorf("scenario: chaos[%d]: unknown action %q", i, a.Action)
		}
	}

	if s.SLO.RecoveryTime > 0 && !kills {
		return fmt.Errorf("scenario: slo.recovery_time set but no kill_node action scheduled")
	}
	if s.SLO.ReadyzAvailability > 1 {
		return fmt.Errorf("scenario: slo.readyz_availability must be <= 1.0")
	}
	return nil
}

// validTarget checks a kill target: "random" or "node-N" within the fleet.
func validTarget(target string, nodes int) error {
	switch target {
	case "":
		return fmt.Errorf("target is required")
	case "random":
		return nil
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
