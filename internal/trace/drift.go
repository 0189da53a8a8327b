package trace

import (
	"fmt"
	"sort"
	"time"

	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/xrand"
)

// Regime is one period of fleet behaviour with its own failure-pattern mix —
// what a firmware rollout or a new HBM vendor batch looks like in the field.
type Regime struct {
	// Duration of the regime.
	Duration time.Duration
	// Weights is the pattern mix during the regime.
	Weights faultsim.PatternWeights
	// UERBanks is the number of faulty banks arising in the regime.
	UERBanks int
}

// DriftSpec configures a multi-regime fleet whose failure behaviour changes
// over time. It exists to exercise drift detection and retraining.
type DriftSpec struct {
	// Fault configures the per-bank process; its Start anchors regime 0
	// and its Duration is ignored (regimes carry their own).
	Fault faultsim.Config
	// Regimes play back to back.
	Regimes []Regime
	// Seed drives all randomness.
	Seed uint64
}

// Validate checks the specification.
func (s DriftSpec) Validate() error {
	if len(s.Regimes) == 0 {
		return fmt.Errorf("trace: drift spec has no regimes")
	}
	for i, r := range s.Regimes {
		if r.Duration <= 0 {
			return fmt.Errorf("trace: regime %d has non-positive duration", i)
		}
		if r.UERBanks < 1 {
			return fmt.Errorf("trace: regime %d has no banks", i)
		}
		total := 0.0
		for _, w := range r.Weights {
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("trace: regime %d has no positive pattern weights", i)
		}
	}
	return s.Fault.Validate()
}

// DriftFleet is the generated multi-regime dataset.
type DriftFleet struct {
	// Faults holds every bank's ground truth, ordered by onset (the time
	// of the bank's first UER).
	Faults []*faultsim.BankFault
	// RegimeOf[i] is the regime index of Faults[i].
	RegimeOf []int
}

// GenerateDrift synthesises the multi-regime fleet. Each regime's banks get
// fault onsets inside that regime's window, so replaying Faults in order
// walks through the drift.
func GenerateDrift(spec DriftSpec) (*DriftFleet, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(spec.Seed)
	out := &DriftFleet{}
	used := make(map[uint64]bool)
	regimeStart := spec.Fault.Start

	for ri, regime := range spec.Regimes {
		cfg := spec.Fault
		cfg.Start = regimeStart
		cfg.Duration = regime.Duration
		gen, err := faultsim.NewGenerator(cfg, rng.Split())
		if err != nil {
			return nil, err
		}
		for b := 0; b < regime.UERBanks; b++ {
			var bank hbm.BankAddress
			for attempt := 0; ; attempt++ {
				bank = hbm.RandomBank(cfg.Profile.Geometry, rng)
				if k := cfg.Profile.Layout.PackBank(bank); !used[k] {
					used[k] = true
					break
				}
				if attempt > 64 {
					return nil, fmt.Errorf("trace: could not place bank in regime %d", ri)
				}
			}
			bf, err := gen.GenerateSampled(bank, regime.Weights)
			if err != nil {
				return nil, err
			}
			out.Faults = append(out.Faults, bf)
			out.RegimeOf = append(out.RegimeOf, ri)
		}
		regimeStart = regimeStart.Add(regime.Duration)
	}

	// Order by first-UER time so replay follows wall-clock drift.
	order := make([]int, len(out.Faults))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return out.Faults[order[a]].UERTimes[0].Before(out.Faults[order[b]].UERTimes[0])
	})
	faults := make([]*faultsim.BankFault, len(order))
	regimes := make([]int, len(order))
	for i, idx := range order {
		faults[i] = out.Faults[idx]
		regimes[i] = out.RegimeOf[idx]
	}
	out.Faults = faults
	out.RegimeOf = regimes
	return out, nil
}

// MixOf tallies the class mix of one regime's banks.
func (f *DriftFleet) MixOf(regime int) map[faultsim.Class]int {
	mix := make(map[faultsim.Class]int)
	for i, bf := range f.Faults {
		if f.RegimeOf[i] == regime {
			mix[bf.Class()]++
		}
	}
	return mix
}
