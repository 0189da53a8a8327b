package chaos

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/xrand"
)

// Plan is the fully resolved, deterministic run plan: the generated event
// stream and the chaos schedule with every "random" target pinned. Two
// BuildPlan calls with the same scenario and seed produce byte-identical
// plans — Digest is the proof, and the report records it so reruns can be
// compared.
type Plan struct {
	Fleet *GeneratedFleet
	// Chaos mirrors Scenario.Chaos with "random" targets resolved to a
	// concrete node.
	Chaos []ChaosAction
	// Digest fingerprints events + schedule (FNV-1a 64, hex).
	Digest string
}

// GeneratedFleet is the synthetic workload for one run.
type GeneratedFleet struct {
	// Events is the merged, time-sorted stream across all banks.
	Events []mcelog.Event
	// Banks is the number of distinct banks generated.
	Banks int
	// PerTemplate counts banks per template name.
	PerTemplate map[string]int
	// Faulty counts banks that carry a real fault pattern (the rest are
	// benign and must not produce verdicts).
	Faulty int
}

// BuildPlan generates the fleet workload and resolves the chaos schedule,
// all from the scenario seed. The RNG is split so workload and schedule
// draw from independent deterministic streams: adding a chaos action does
// not reshuffle the event stream.
func BuildPlan(sc *Scenario, geo hbm.Geometry) (*Plan, error) {
	base := xrand.New(sc.Seed)
	fleetRNG := base.Split()
	chaosRNG := base.Split()

	fleet, err := generateFleet(sc, geo, &fleetRNG)
	if err != nil {
		return nil, err
	}

	chaos := make([]ChaosAction, len(sc.Chaos))
	copy(chaos, sc.Chaos)
	for i := range chaos {
		if chaos[i].Target == "random" {
			chaos[i].Target = "node-" + strconv.Itoa(1+chaosRNG.Intn(sc.Fleet.Nodes))
		}
	}

	return &Plan{Fleet: fleet, Chaos: chaos, Digest: planDigest(fleet, chaos)}, nil
}

// patternByName maps scenario template names to generator patterns,
// matching cordial-gen's CLI vocabulary.
func patternByName(name string) (faultsim.Pattern, bool) {
	switch name {
	case "single":
		return faultsim.PatternSingleRow, true
	case "double":
		return faultsim.PatternDoubleRow, true
	case "half":
		return faultsim.PatternHalfTotalRow, true
	case "scattered":
		return faultsim.PatternScattered, true
	case "wholecol":
		return faultsim.PatternWholeColumn, true
	}
	return 0, false
}

func generateFleet(sc *Scenario, geo hbm.Geometry, rng *xrand.RNG) (*GeneratedFleet, error) {
	gen, err := faultsim.NewGenerator(faultsim.DefaultConfig(geo), rng.Split())
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(sc.FleetGen.Templates))
	for i, t := range sc.FleetGen.Templates {
		weights[i] = t.Weight
	}
	mixed := faultsim.DefaultPatternWeights()

	fleet := &GeneratedFleet{PerTemplate: map[string]int{}}
	runs := make([][]mcelog.Event, 0, sc.FleetGen.TotalBanks)
	used := make(map[uint64]bool, sc.FleetGen.TotalBanks)
	for b := 0; b < sc.FleetGen.TotalBanks; b++ {
		var bank hbm.BankAddress
		for {
			bank = hbm.RandomBank(geo, rng)
			if !used[bank.Pack()] {
				used[bank.Pack()] = true
				break
			}
		}
		tpl := sc.FleetGen.Templates[rng.WeightedChoice(weights)]
		fleet.PerTemplate[tpl.Name]++
		switch tpl.Pattern {
		case "benign":
			runs = append(runs, gen.GenerateBenign(bank))
		case "mixed":
			bf, err := gen.GenerateSampled(bank, mixed)
			if err != nil {
				return nil, fmt.Errorf("chaos: template %q: %w", tpl.Name, err)
			}
			runs = append(runs, bf.Events)
			fleet.Faulty++
		default:
			p, ok := patternByName(tpl.Pattern)
			if !ok {
				return nil, fmt.Errorf("chaos: template %q: unknown pattern %q", tpl.Name, tpl.Pattern)
			}
			bf, err := gen.Generate(bank, p)
			if err != nil {
				return nil, fmt.Errorf("chaos: template %q: %w", tpl.Name, err)
			}
			runs = append(runs, bf.Events)
			fleet.Faulty++
		}
	}
	fleet.Events = mcelog.Merge(runs).Events()
	fleet.Banks = sc.FleetGen.TotalBanks
	return fleet, nil
}

// planDigest fingerprints the event stream and resolved schedule. The
// per-event image matches the wire record: time, packed address, class,
// error bits — two plans differing only in reported DQ/burst patterns
// hash differently.
func planDigest(fleet *GeneratedFleet, chaos []ChaosAction) string {
	h := fnv.New64a()
	var buf [19]byte
	for _, ev := range fleet.Events {
		putInt64(buf[0:8], ev.Time.UnixNano())
		putUint64(buf[8:16], ev.Addr.Pack())
		buf[16] = byte(ev.Class)
		buf[17] = byte(ev.Bits)
		buf[18] = byte(ev.Bits >> 8)
		h.Write(buf[:])
	}
	for _, a := range chaos {
		putInt64(buf[0:8], int64(a.At))
		h.Write(buf[0:8])
		h.Write([]byte(a.Action))
		h.Write([]byte(a.Target))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func putInt64(b []byte, v int64) { putUint64(b, uint64(v)) }

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
