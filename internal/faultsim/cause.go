package faultsim

import (
	"fmt"

	"cordial/internal/xrand"
)

// Cause is the physical root cause behind a bank-level failure pattern,
// following the paper's background discussion (§I, §II, §VI): sub-wordline
// driver (SWD) malfunctions take out a row and its physical neighbours and
// are beyond conventional ECC; TSV and micro-bump defects in the 3D stack
// corrupt many addresses that share the interconnect; column decoder/driver
// faults strike one column across rows; and weak cells produce isolated
// retention failures.
type Cause int

// Physical root causes.
const (
	// CauseSWD is a sub-wordline driver malfunction: rows under the failed
	// driver fail together — the dominant source of row-clustered
	// patterns.
	CauseSWD Cause = iota + 1
	// CauseTSV is a through-silicon-via fault: addresses striped across
	// the die that share the vertical interconnect fail irregularly.
	CauseTSV
	// CauseMicroBump is a degraded micro-bump joint (thermal compression
	// bonding defects), similar in effect to TSV faults.
	CauseMicroBump
	// CauseColumnDriver is a column decoder/driver fault: one column fails
	// across nearly all rows.
	CauseColumnDriver
	// CauseWeakCells is retention degradation of isolated cells.
	CauseWeakCells
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseSWD:
		return "sub-wordline driver"
	case CauseTSV:
		return "TSV fault"
	case CauseMicroBump:
		return "micro-bump defect"
	case CauseColumnDriver:
		return "column driver"
	case CauseWeakCells:
		return "weak cells"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// causeWeights gives, per pattern, the plausible root causes and their
// relative likelihoods. Single-row clusters are overwhelmingly SWD failures;
// double-row variants are SWD failures whose driver serves mirrored
// segments; scattered banks split between TSV and micro-bump interconnect
// faults plus weak cells; whole-column banks are column-driver faults.
var causeWeights = map[Pattern][]struct {
	cause  Cause
	weight float64
}{
	PatternSingleRow: {
		{CauseSWD, 0.85}, {CauseWeakCells, 0.15},
	},
	PatternDoubleRow: {
		{CauseSWD, 0.90}, {CauseMicroBump, 0.10},
	},
	PatternHalfTotalRow: {
		{CauseSWD, 0.95}, {CauseMicroBump, 0.05},
	},
	PatternScattered: {
		{CauseTSV, 0.45}, {CauseMicroBump, 0.30}, {CauseWeakCells, 0.25},
	},
	PatternWholeColumn: {
		{CauseColumnDriver, 0.90}, {CauseTSV, 0.10},
	},
}

// SampleCause draws a physical root cause consistent with the pattern.
func SampleCause(p Pattern, rng *xrand.RNG) Cause {
	entries, ok := causeWeights[p]
	if !ok {
		panic(fmt.Sprintf("faultsim: SampleCause(%d)", int(p)))
	}
	weights := make([]float64, len(entries))
	for i, e := range entries {
		weights[i] = e.weight
	}
	return entries[rng.WeightedChoice(weights)].cause
}
