package features

import (
	"fmt"
	"math/bits"
	"slices"

	"cordial/internal/mcelog"
)

// Error-bit features (after "Exploring Error Bits for Memory Failure
// Prediction"): aggregates over the per-event intra-word DQ/burst error
// pattern. A physical pin fault corrupts the same DQ wire event after
// event, so its DQ-pin distribution is concentrated; transient scattered
// upsets spread across pins. Events without syndrome detail (Bits zero)
// are excluded — a fleet whose BMCs report no error bits yields Missing
// for every statistic, so the features degrade to no-ops rather than
// inventing signal.

// errBitFeatureCount is kept in sync with ErrBitVector/ErrBitFeatureNames.
const errBitFeatureCount = 6

// ErrBitFeatureNames returns the column names of ErrBitVector, in order.
func ErrBitFeatureNames() []string {
	return []string{
		"errbit_event_count",
		"dq_union_popcount",
		"dq_dominant_fraction",
		"dq_avg_popcount",
		"burst_union_popcount",
		"burst_avg_popcount",
	}
}

// errBitAccum incrementally maintains the error-bit aggregates: O(1) per
// observation, fixed size. Mirrors referenceErrBitVector bit-for-bit.
type errBitAccum struct {
	count                 uint32 // events with a nonzero error-bit pattern
	dqUnion, burstUnion   uint8
	dqPinCounts           [8]uint32
	dqPopSum, burstPopSum uint32
}

// observe folds one event's error-bit pattern; zero patterns are skipped.
func (a *errBitAccum) observe(b mcelog.ErrBits) {
	if b.IsZero() {
		return
	}
	a.count++
	dq, burst := b.DQ(), b.Burst()
	a.dqUnion |= dq
	a.burstUnion |= burst
	for pin := 0; pin < 8; pin++ {
		if dq&(1<<pin) != 0 {
			a.dqPinCounts[pin]++
		}
	}
	a.dqPopSum += uint32(bits.OnesCount8(dq))
	a.burstPopSum += uint32(bits.OnesCount8(burst))
}

// vector renders the accumulator as the feature slice.
func (a *errBitAccum) vector() []float64 {
	out := make([]float64, 0, errBitFeatureCount)
	out = append(out, float64(a.count))
	if a.count == 0 {
		for len(out) < errBitFeatureCount {
			out = append(out, Missing)
		}
		return out
	}
	n := float64(a.count)
	out = append(out,
		float64(bits.OnesCount8(a.dqUnion)),
		float64(slices.Max(a.dqPinCounts[:]))/n,
		float64(a.dqPopSum)/n,
		float64(bits.OnesCount8(a.burstUnion)),
		float64(a.burstPopSum)/n,
	)
	return out
}

// ErrBitVector returns the error-bit feature vector over the events
// observed so far, bit-identical to referenceErrBitVector over the same
// prefix. It never errors on an empty state (all statistics are Missing,
// the count zero); the signature matches the other vector methods.
func (s *BankState) ErrBitVector() ([]float64, error) {
	out := s.errBits.vector()
	if len(out) != errBitFeatureCount {
		panic(fmt.Sprintf("features: error-bit vector has %d values, want %d", len(out), errBitFeatureCount))
	}
	return out, nil
}
