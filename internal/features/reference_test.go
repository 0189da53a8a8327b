package features

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// The batch reference implementations of PatternVector and BlockVector: the
// original whole-slice code, several passes over the full event slice and
// obviously faithful to §IV-B/§IV-D. Nothing outside the tests calls them —
// they are the executable specification the incremental BankState is table-
// and fuzz-tested against at every prefix — so they live with the tests.

// newSeqStats computes sequence statistics for the given events (already in
// time order).
func newSeqStats(events []mcelog.Event) seqStats {
	s := seqStats{
		count:  len(events),
		rowMin: Missing, rowMax: Missing,
		rowDiffMin: Missing, rowDiffMax: Missing, rowDiffAvg: Missing,
		dtMin: Missing, dtMax: Missing, dtAvg: Missing,
	}
	if len(events) == 0 {
		return s
	}
	s.rowMin = float64(events[0].Addr.Row)
	s.rowMax = s.rowMin
	for _, e := range events[1:] {
		r := float64(e.Addr.Row)
		if r < s.rowMin {
			s.rowMin = r
		}
		if r > s.rowMax {
			s.rowMax = r
		}
	}
	if len(events) < 2 {
		return s
	}
	var sumDiff, sumDt float64
	for i := 1; i < len(events); i++ {
		d := math.Abs(float64(events[i].Addr.Row - events[i-1].Addr.Row))
		dt := hours(events[i].Time.Sub(events[i-1].Time))
		if i == 1 {
			s.rowDiffMin, s.rowDiffMax = d, d
			s.dtMin, s.dtMax = dt, dt
		} else {
			if d < s.rowDiffMin {
				s.rowDiffMin = d
			}
			if d > s.rowDiffMax {
				s.rowDiffMax = d
			}
			if dt < s.dtMin {
				s.dtMin = dt
			}
			if dt > s.dtMax {
				s.dtMax = dt
			}
		}
		sumDiff += d
		sumDt += dt
	}
	n := float64(len(events) - 1)
	s.rowDiffAvg = sumDiff / n
	s.dtAvg = sumDt / n
	return s
}

// splitByClass partitions bank events (time-sorted) into CE, UEO and UER
// subsequences, preserving order.
func splitByClass(events []mcelog.Event) (ces, ueos, uers []mcelog.Event) {
	for _, e := range events {
		switch e.Class {
		case ecc.ClassCE:
			ces = append(ces, e)
		case ecc.ClassUEO:
			ueos = append(ueos, e)
		case ecc.ClassUER:
			uers = append(uers, e)
		}
	}
	return ces, ueos, uers
}

// firstKUERRows returns the rows of the first k distinct UER rows, in time
// order, along with the remaining events truncated at the k-th first-UER
// time (inclusive). It mirrors §IV-C: classification uses all CEs and UEOs
// plus the first three UERs.
func firstKUERRows(events []mcelog.Event, k int) (rows []int, cutoff time.Time, ok bool) {
	seen := make(map[int]bool, k)
	for _, e := range events {
		if e.Class != ecc.ClassUER || seen[e.Addr.Row] {
			continue
		}
		seen[e.Addr.Row] = true
		rows = append(rows, e.Addr.Row)
		cutoff = e.Time
		if len(rows) == k {
			return rows, cutoff, true
		}
	}
	if len(rows) == 0 {
		return nil, time.Time{}, false
	}
	return rows, cutoff, true
}

// referencePatternVector is the batch reference implementation of
// PatternVector: several passes over the full slice, obviously faithful to
// §IV-B. It exists to pin the incremental path — the equivalence tests and
// FuzzIncrementalFeatureEquivalence compare against it at every prefix.
func referencePatternVector(events []mcelog.Event, cfg PatternConfig) ([]float64, error) {
	if cfg.UERBudget <= 0 {
		cfg.UERBudget = 3
	}
	uerRows, cutoff, ok := firstKUERRows(events, cfg.UERBudget)
	if !ok {
		return nil, fmt.Errorf("features: bank has no UER events")
	}
	// Truncate at the cutoff: everything after the k-th first-UER is
	// future information the classifier must not see.
	var visible []mcelog.Event
	for _, e := range events {
		if !e.Time.After(cutoff) {
			visible = append(visible, e)
		}
	}
	ces, ueos, uers := splitByClass(visible)
	// Restrict UERs to first distinct rows only (repeat UERs of the same
	// row are deduplicated for the spatial features).
	uers = dedupeRows(uers, cfg.UERBudget)

	out := make([]float64, 0, patternFeatureCount)
	for _, s := range []seqStats{newSeqStats(ces), newSeqStats(ueos), newSeqStats(uers)} {
		out = append(out,
			s.rowMin, s.rowMax,
			s.rowDiffMin, s.rowDiffMax, s.rowDiffAvg,
			s.dtMin, s.dtMax,
		)
	}

	// UER row span over the budget.
	minRow, maxRow := uerRows[0], uerRows[0]
	for _, r := range uerRows[1:] {
		if r < minRow {
			minRow = r
		}
		if r > maxRow {
			maxRow = r
		}
	}
	out = append(out, float64(maxRow-minRow))
	out = append(out, float64(len(uerRows)))

	// Counts strictly before the first UER.
	firstUER := uers[0].Time
	ceBefore, ueoBefore := 0, 0
	for _, e := range visible {
		if !e.Time.Before(firstUER) {
			continue
		}
		switch e.Class {
		case ecc.ClassCE:
			ceBefore++
		case ecc.ClassUEO:
			ueoBefore++
		}
	}
	out = append(out, float64(ceBefore), float64(ueoBefore))

	out = append(out, newSeqStats(visible).rowDiffAvg)

	// Lead time from the first visible error of any class to the first UER.
	lead := Missing
	if len(visible) > 0 && visible[0].Time.Before(firstUER) {
		lead = hours(firstUER.Sub(visible[0].Time))
	}
	out = append(out, lead)

	// CE density before the first UER (events per hour of lead time).
	rate := Missing
	if lead > 0 {
		rate = float64(ceBefore) / lead
	}
	out = append(out, rate)

	out = append(out, newSeqStats(uers).dtAvg)

	if len(out) != patternFeatureCount {
		panic(fmt.Sprintf("features: pattern vector has %d values, want %d", len(out), patternFeatureCount))
	}
	return out, nil
}

// dedupeRows keeps only the first event of each distinct row, up to k rows.
func dedupeRows(events []mcelog.Event, k int) []mcelog.Event {
	seen := make(map[int]bool, k)
	var out []mcelog.Event
	for _, e := range events {
		if seen[e.Addr.Row] {
			continue
		}
		seen[e.Addr.Row] = true
		out = append(out, e)
		if len(out) == k {
			break
		}
	}
	return out
}

// referenceBlockVector is the batch reference implementation of
// BlockVector, kept as the executable specification the incremental path
// is fuzz- and table-tested against.
func referenceBlockVector(events []mcelog.Event, anchorRow int, spec BlockSpec, block int, now time.Time) ([]float64, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if block < 0 || block >= spec.NumBlocks() {
		return nil, fmt.Errorf("features: block %d out of [0,%d)", block, spec.NumBlocks())
	}
	ces, ueos, uers := splitByClass(events)

	out := make([]float64, 0, BlockFeatureCount)
	for _, evs := range [][]mcelog.Event{ces, ueos, uers} {
		s := newSeqStats(evs)
		out = append(out,
			float64(s.count),
			s.rowDiffMin, s.rowDiffMax, s.rowDiffAvg,
			s.dtMin, s.dtMax, s.dtAvg,
		)
	}

	out = append(out, float64(len(events)))

	sinceLast := Missing
	if len(events) > 0 {
		sinceLast = hours(now.Sub(events[len(events)-1].Time))
	}
	out = append(out, sinceLast)

	lo, hi := spec.BlockRange(anchorRow, block)
	centre := (lo + hi) / 2
	offset := centre - anchorRow
	out = append(out, float64(offset), math.Abs(float64(offset)))

	inBlock := func(row int) bool { return row >= lo && row <= hi }
	prior, priorUER := 0, 0
	for _, e := range events {
		if inBlock(e.Addr.Row) {
			prior++
			if e.Class == ecc.ClassUER {
				priorUER++
			}
		}
	}
	out = append(out, float64(prior), float64(priorUER))

	for _, evs := range [][]mcelog.Event{ces, ueos, uers} {
		out = append(out, nearestRowDistance(evs, centre))
	}

	uerRows := make(map[int]bool)
	for _, e := range uers {
		uerRows[e.Addr.Row] = true
	}
	out = append(out, float64(len(uerRows)))
	out = append(out, float64(anchorRow))

	// Cluster-centre estimates: future failures concentrate around the
	// mean of the rows seen so far, not around the last failure. The block
	// predictor's strongest spatial cue is the distance from the block
	// centre to those means.
	uerMean := meanRow(uers)
	ceMean := meanRow(ces)
	if uerMean == Missing {
		out = append(out, Missing, Missing)
	} else {
		out = append(out, uerMean-float64(anchorRow), math.Abs(float64(centre)-uerMean))
	}
	if ceMean == Missing {
		out = append(out, Missing)
	} else {
		out = append(out, math.Abs(float64(centre)-ceMean))
	}

	if len(out) != BlockFeatureCount {
		panic(fmt.Sprintf("features: block vector has %d values, want %d", len(out), BlockFeatureCount))
	}
	return out, nil
}

// meanRow returns the mean row of the events, or Missing when there are
// none. Repeat events weight the mean toward actively failing rows, which is
// intended.
func meanRow(events []mcelog.Event) float64 {
	if len(events) == 0 {
		return Missing
	}
	sum := 0.0
	for _, e := range events {
		sum += float64(e.Addr.Row)
	}
	return sum / float64(len(events))
}

// nearestRowDistance returns the minimum |row - target| over the events, or
// Missing when there are none.
func nearestRowDistance(events []mcelog.Event, target int) float64 {
	best := Missing
	for _, e := range events {
		d := math.Abs(float64(e.Addr.Row - target))
		if best == Missing || d < best {
			best = d
		}
	}
	return best
}

// referenceErrBitVector is the batch reference of the error-bit aggregates,
// the executable specification errBitAccum is tested against.
func referenceErrBitVector(events []mcelog.Event) []float64 {
	var (
		count                 int
		dqUnion, burstUnion   uint8
		dqPinCounts           [8]int
		dqPopSum, burstPopSum int
	)
	for _, e := range events {
		if e.Bits.IsZero() {
			continue
		}
		count++
		dq, burst := e.Bits.DQ(), e.Bits.Burst()
		dqUnion |= dq
		burstUnion |= burst
		for pin := 0; pin < 8; pin++ {
			if dq&(1<<pin) != 0 {
				dqPinCounts[pin]++
			}
		}
		dqPopSum += bits.OnesCount8(dq)
		burstPopSum += bits.OnesCount8(burst)
	}
	out := make([]float64, 0, errBitFeatureCount)
	out = append(out, float64(count))
	if count == 0 {
		for len(out) < errBitFeatureCount {
			out = append(out, Missing)
		}
		return out
	}
	dominant := 0
	for _, c := range dqPinCounts {
		if c > dominant {
			dominant = c
		}
	}
	n := float64(count)
	return append(out,
		float64(bits.OnesCount8(dqUnion)),
		float64(dominant)/n,
		float64(dqPopSum)/n,
		float64(bits.OnesCount8(burstUnion)),
		float64(burstPopSum)/n,
	)
}
