package chaos

import (
	"fmt"
	"os"
	"sort"
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
	Topology   string // registered hbm profile name; empty means the active profile
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

// LoadScenario reads and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := ParseScenario(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// ParseScenario parses scenario YAML and validates the result.
func ParseScenario(data []byte) (*Scenario, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	sc := &Scenario{
		// Defaults chosen so a minimal scenario is still a real run.
		Seed: 1,
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

	d.str(root, "name", &sc.Name)
	d.str(root, "description", &sc.Description)
	d.uint64(root, "seed", &sc.Seed)

	if fl := d.section(root, "fleet"); fl != nil {
		d.intField(fl, "nodes", &sc.Fleet.Nodes)
		d.intField(fl, "train_banks", &sc.Fleet.TrainBanks)
		d.intField(fl, "trees", &sc.Fleet.Trees)
		d.uint64(fl, "train_seed", &sc.Fleet.TrainSeed)
		d.str(fl, "topology", &sc.Fleet.Topology)
		d.str(fl, "fsync", &sc.Fleet.Fsync)
		d.str(fl, "faultfs", &sc.Fleet.FaultFS)
		d.boolField(fl, "retrain", &sc.Fleet.Retrain)
		d.dur(fl, "heartbeat", &sc.Fleet.Heartbeat)
		d.dur(fl, "heartbeat_ttl", &sc.Fleet.HeartbeatTTL)
		d.dur(fl, "sweep_interval", &sc.Fleet.SweepInterval)
		d.intField(fl, "router_max_attempts", &sc.Fleet.RouterMaxAttempt)
		d.dur(fl, "router_refresh", &sc.Fleet.RouterRefresh)
		if st := d.section(fl, "startup"); st != nil {
			d.str(st, "pattern", &sc.Fleet.Startup.Pattern)
			d.dur(st, "spacing", &sc.Fleet.Startup.Spacing)
			d.intField(st, "wave_size", &sc.Fleet.Startup.WaveSize)
			d.checkUnknown(st, "fleet.startup")
		}
		d.checkUnknown(fl, "fleet")
	}

	if fg := d.section(root, "fleet_gen"); fg != nil {
		d.intField(fg, "total_banks", &sc.FleetGen.TotalBanks)
		for i, item := range d.list(fg, "templates") {
			t := TemplateSpec{Weight: 1}
			d.str(item, "name", &t.Name)
			d.floatField(item, "weight", &t.Weight)
			d.str(item, "pattern", &t.Pattern)
			d.checkUnknown(item, fmt.Sprintf("fleet_gen.templates[%d]", i))
			sc.FleetGen.Templates = append(sc.FleetGen.Templates, t)
		}
		d.checkUnknown(fg, "fleet_gen")
	}

	if ld := d.section(root, "load"); ld != nil {
		d.intField(ld, "events_per_sec", &sc.Load.EventsPerSec)
		d.intField(ld, "batch", &sc.Load.Batch)
		d.str(ld, "codec", &sc.Load.Codec)
		for i, item := range d.list(ld, "phases") {
			var ph LoadPhase
			d.str(item, "name", &ph.Name)
			d.dur(item, "duration", &ph.Duration)
			d.intField(item, "rate", &ph.Rate)
			d.checkUnknown(item, fmt.Sprintf("load.phases[%d]", i))
			sc.Load.Phases = append(sc.Load.Phases, ph)
		}
		d.checkUnknown(ld, "load")
	}

	for i, item := range d.listAt(root, "chaos") {
		var a ChaosAction
		d.dur(item, "at", &a.At)
		d.str(item, "action", &a.Action)
		d.str(item, "target", &a.Target)
		d.intField(item, "count", &a.Count)
		d.dur(item, "duration", &a.Duration)
		d.dur(item, "offset", &a.Offset)
		d.intField(item, "version", &a.Version)
		d.checkUnknown(item, fmt.Sprintf("chaos[%d]", i))
		sc.Chaos = append(sc.Chaos, a)
	}

	if sl := d.section(root, "slo"); sl != nil {
		d.dur(sl, "p99_ingest_latency", &sc.SLO.P99IngestLatency)
		d.dur(sl, "recovery_time", &sc.SLO.RecoveryTime)
		d.floatField(sl, "readyz_availability", &sc.SLO.ReadyzAvailability)
		d.boolField(sl, "zero_verdict_loss", &sc.SLO.ZeroVerdictLoss)
		d.intField(sl, "max_poison_accepted", &sc.SLO.MaxPoisonAccepted)
		d.intField(sl, "min_model_swaps", &sc.SLO.MinModelSwaps)
		d.checkUnknown(sl, "slo")
	}

	if rp := d.section(root, "report"); rp != nil {
		d.str(rp, "json", &sc.Report.JSON)
		d.str(rp, "html", &sc.Report.HTML)
		d.checkUnknown(rp, "report")
	}

	d.checkUnknown(root, "")
	if d.err != nil {
		return nil, d.err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// Validate checks cross-field consistency; parse errors are caught
// earlier by the decoder.
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

// decoder pulls typed fields out of the parseYAML tree, accumulating the
// first error and tracking which keys each section consumed so unknown
// keys are reported instead of silently ignored.
type decoder struct {
	err  error
	seen map[any]map[string]bool
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) mark(m map[string]any, key string) {
	if d.seen == nil {
		d.seen = map[any]map[string]bool{}
	}
	k := any(fmt.Sprintf("%p", m))
	if d.seen[k] == nil {
		d.seen[k] = map[string]bool{}
	}
	d.seen[k][key] = true
}

func (d *decoder) checkUnknown(m map[string]any, section string) {
	k := any(fmt.Sprintf("%p", m))
	var unknown []string
	for key := range m {
		if d.seen == nil || !d.seen[k][key] {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		where := section
		if where == "" {
			where = "scenario"
		}
		d.fail("scenario: %s: unknown key %q", where, unknown[0])
	}
}

func (d *decoder) scalar(m map[string]any, key string) (string, bool) {
	d.mark(m, key)
	v, ok := m[key]
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	if !ok {
		d.fail("scenario: %s must be a scalar", key)
		return "", false
	}
	return s, true
}

func (d *decoder) section(m map[string]any, key string) map[string]any {
	d.mark(m, key)
	v, ok := m[key]
	if !ok {
		return nil
	}
	sub, ok := v.(map[string]any)
	if !ok {
		d.fail("scenario: %s must be a mapping", key)
		return nil
	}
	return sub
}

// list returns the map items of a list-valued key; scalar items are an
// error. listAt is the same for root-level keys (different error prefix
// is not worth a second code path).
func (d *decoder) list(m map[string]any, key string) []map[string]any {
	d.mark(m, key)
	v, ok := m[key]
	if !ok {
		return nil
	}
	items, ok := v.([]any)
	if !ok {
		d.fail("scenario: %s must be a list", key)
		return nil
	}
	out := make([]map[string]any, 0, len(items))
	for i, it := range items {
		sub, ok := it.(map[string]any)
		if !ok {
			d.fail("scenario: %s[%d] must be a mapping", key, i)
			return nil
		}
		out = append(out, sub)
	}
	return out
}

func (d *decoder) listAt(m map[string]any, key string) []map[string]any {
	return d.list(m, key)
}

func (d *decoder) str(m map[string]any, key string, dst *string) {
	if s, ok := d.scalar(m, key); ok {
		*dst = s
	}
}

func (d *decoder) intField(m map[string]any, key string, dst *int) {
	s, ok := d.scalar(m, key)
	if !ok {
		return
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		d.fail("scenario: %s: bad integer %q", key, s)
		return
	}
	*dst = v
}

func (d *decoder) uint64(m map[string]any, key string, dst *uint64) {
	s, ok := d.scalar(m, key)
	if !ok {
		return
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		d.fail("scenario: %s: bad unsigned integer %q", key, s)
		return
	}
	*dst = v
}

func (d *decoder) floatField(m map[string]any, key string, dst *float64) {
	s, ok := d.scalar(m, key)
	if !ok {
		return
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail("scenario: %s: bad number %q", key, s)
		return
	}
	*dst = v
}

func (d *decoder) boolField(m map[string]any, key string, dst *bool) {
	s, ok := d.scalar(m, key)
	if !ok {
		return
	}
	switch s {
	case "true", "yes", "on":
		*dst = true
	case "false", "no", "off":
		*dst = false
	default:
		d.fail("scenario: %s: bad boolean %q", key, s)
	}
}

func (d *decoder) dur(m map[string]any, key string, dst *time.Duration) {
	s, ok := d.scalar(m, key)
	if !ok {
		return
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		d.fail("scenario: %s: bad duration %q", key, s)
		return
	}
	*dst = v
}
