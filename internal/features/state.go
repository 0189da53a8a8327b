package features

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/mcelog"
)

// BankState is the incremental feature accumulator behind both Cordial
// stages: it consumes one bank's events in time order via Observe and can
// produce, at any point, the exact §IV-B pattern vector and §IV-D block
// vectors that the batch extractors would compute over the events observed
// so far. Every aggregate is maintained in O(1) amortized time per event,
// and memory is bounded by the bank's distinct error rows (≤ RowsPerBank),
// never by the length of the history — the property that keeps a
// long-lived online session flat in both latency and footprint.
//
// Equivalence contract: for any event sequence with nondecreasing
// timestamps, the vectors returned by PatternVector and BlockVector are
// bit-identical to referencePatternVector/referenceBlockVector over the
// same prefix. This is pinned by table tests and by
// FuzzIncrementalFeatureEquivalence.
//
// A freshly created BankState has observed nothing: BlockVector returns
// Missing for every sequence statistic (and zero counts), and
// PatternVector returns an error until the first UER is observed —
// exactly as the batch extractors behave on an empty slice.
//
// BankState is not safe for concurrent use; callers (the stream engine's
// shard consumers, the offline dataset builders) serialise access per bank.
type BankState struct {
	cfg  PatternConfig
	spec BlockSpec

	events int

	// Pattern stage (§IV-B). The classifier sees only events up to the
	// cutoff — the time of the latest first-K distinct UER — so two
	// accumulator sets are kept: committed covers exactly the visible
	// events, staged additionally covers events after the cutoff that
	// become visible if a later distinct UER extends it. Both are O(1) in
	// size; promotion is a struct copy.
	committed patternAccums
	staged    patternAccums
	// budgetRows is the first-K distinct UER rows in first-occurrence
	// order (K = cfg.UERBudget, so len ≤ K).
	budgetRows []int
	// budgetSeen dedupes budgetRows; ≤ K entries, freed once the budget
	// is exhausted.
	budgetSeen map[int]bool
	cutoff     time.Time
	budgetDone bool

	haveFirstEvent bool
	firstEventTime time.Time
	haveUER        bool
	firstUERTime   time.Time
	// ceBefore/ueoBefore are the §IV-B counts strictly before the first
	// UER, frozen the moment it arrives.
	ceBefore, ueoBefore int
	// Pre-first-UER tallies. Ties at the first UER's own timestamp must
	// not count ("strictly before"), so the trailing run of
	// equal-timestamp events is tracked separately and subtracted.
	ceTotal, ueoTotal int
	runTime           time.Time
	ceAtRun, ueoAtRun int

	// Block stage (§IV-D). These cover everything observed (block
	// decisions use the full history up to the decision time).
	blkCE, blkUEO, blkUER seqAccum
	ceRowSum, uerRowSum   float64
	ceRows, ueoRows       rowSet
	uerRows               rowSet
	rowCounts             map[int]blockRowCount
	lastTime              time.Time

	// Error-bit aggregates (intra-word DQ/burst patterns), covering every
	// observed event with a nonzero pattern.
	errBits errBitAccum
}

// NewBankState returns an empty accumulator for one bank. A non-positive
// UERBudget takes the paper's default of 3, mirroring PatternVector.
func NewBankState(cfg PatternConfig, spec BlockSpec) (*BankState, error) {
	if cfg.UERBudget <= 0 {
		cfg.UERBudget = 3
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &BankState{cfg: cfg, spec: spec}, nil
}

// patternAccums is one set of §IV-B sequence accumulators: the three
// per-class subsequences plus the all-events sequence.
type patternAccums struct {
	ce, ueo, uer, all seqAccum
}

// blockRowCount tallies one row's events for the block-local prior counts.
type blockRowCount struct {
	total, uer int
}

// Observe folds one event into the state. Events must arrive in
// nondecreasing time order (the same contract the batch extractors place
// on their input slice); the equivalence guarantee holds only then.
func (s *BankState) Observe(e mcelog.Event) {
	s.events++
	if !s.haveFirstEvent {
		s.haveFirstEvent = true
		s.firstEventTime = e.Time
	}
	s.observePattern(e)
	s.observeBlock(e)
	s.errBits.observe(e.Bits)
}

// observePattern maintains the §IV-B aggregates.
func (s *BankState) observePattern(e mcelog.Event) {
	row, t := e.Addr.Row, e.Time
	isUER := e.Class == ecc.ClassUER
	if isUER && !s.haveUER {
		// Freeze the strictly-before-first-UER counts. Events in the
		// trailing run share this UER's timestamp and are excluded.
		s.haveUER = true
		s.firstUERTime = t
		s.ceBefore, s.ueoBefore = s.ceTotal, s.ueoTotal
		if s.runTime.Equal(t) {
			s.ceBefore -= s.ceAtRun
			s.ueoBefore -= s.ueoAtRun
		}
	}
	if !s.haveUER {
		if !s.runTime.Equal(t) {
			s.runTime, s.ceAtRun, s.ueoAtRun = t, 0, 0
		}
		switch e.Class {
		case ecc.ClassCE:
			s.ceTotal++
			s.ceAtRun++
		case ecc.ClassUEO:
			s.ueoTotal++
			s.ueoAtRun++
		}
	}
	if isUER && !s.budgetDone {
		if s.budgetSeen == nil {
			s.budgetSeen = make(map[int]bool, s.cfg.UERBudget)
		}
		if !s.budgetSeen[row] {
			// A new distinct UER row under budget extends the cutoff:
			// everything staged becomes visible, and this UER joins the
			// deduplicated first-K subsequence.
			s.budgetSeen[row] = true
			s.budgetRows = append(s.budgetRows, row)
			s.staged.uer.observe(row, t)
			s.staged.all.observe(row, t)
			s.committed = s.staged
			s.cutoff = t
			if len(s.budgetRows) >= s.cfg.UERBudget {
				s.budgetDone = true
				s.budgetSeen = nil
			}
			return
		}
	}
	// Non-extending event: a CE, a UEO, a repeat-row UER, or a UER past
	// the budget. Repeat and past-budget UERs never enter the per-class
	// UER statistics (the batch path deduplicates them away) but do count
	// toward the all-events sequence when visible.
	after := t.After(s.cutoff)
	if after && s.budgetDone {
		return // the cutoff is final; this event can never become visible
	}
	switch e.Class {
	case ecc.ClassCE:
		s.staged.ce.observe(row, t)
	case ecc.ClassUEO:
		s.staged.ueo.observe(row, t)
	}
	s.staged.all.observe(row, t)
	if !after {
		switch e.Class {
		case ecc.ClassCE:
			s.committed.ce.observe(row, t)
		case ecc.ClassUEO:
			s.committed.ueo.observe(row, t)
		}
		s.committed.all.observe(row, t)
	}
}

// observeBlock maintains the §IV-D aggregates.
func (s *BankState) observeBlock(e mcelog.Event) {
	row, t := e.Addr.Row, e.Time
	switch e.Class {
	case ecc.ClassCE:
		s.blkCE.observe(row, t)
		s.ceRowSum += float64(row)
		s.ceRows.add(row)
	case ecc.ClassUEO:
		s.blkUEO.observe(row, t)
		s.ueoRows.add(row)
	case ecc.ClassUER:
		s.blkUER.observe(row, t)
		s.uerRowSum += float64(row)
		s.uerRows.add(row)
	}
	if s.rowCounts == nil {
		s.rowCounts = make(map[int]blockRowCount)
	}
	rc := s.rowCounts[row]
	rc.total++
	if e.Class == ecc.ClassUER {
		rc.uer++
	}
	s.rowCounts[row] = rc
	s.lastTime = t
}

// Events returns the number of events observed.
func (s *BankState) Events() int { return s.events }

// DistinctUERRows returns the number of distinct rows with at least one
// observed UER (not capped by the pattern budget).
func (s *BankState) DistinctUERRows() int { return s.uerRows.size() }

// PatternVector returns the §IV-B feature vector over the events observed
// so far, bit-identical to PatternVector over the same prefix. It returns
// an error until the first UER has been observed (no pattern to classify).
func (s *BankState) PatternVector() ([]float64, error) {
	if !s.haveUER {
		return nil, fmt.Errorf("features: bank has no UER events")
	}
	out := make([]float64, 0, patternFeatureCount)
	for _, st := range []seqStats{s.committed.ce.stats(), s.committed.ueo.stats(), s.committed.uer.stats()} {
		out = append(out,
			st.rowMin, st.rowMax,
			st.rowDiffMin, st.rowDiffMax, st.rowDiffAvg,
			st.dtMin, st.dtMax,
		)
	}
	minRow, maxRow := s.budgetRows[0], s.budgetRows[0]
	for _, r := range s.budgetRows[1:] {
		if r < minRow {
			minRow = r
		}
		if r > maxRow {
			maxRow = r
		}
	}
	out = append(out, float64(maxRow-minRow))
	out = append(out, float64(len(s.budgetRows)))
	out = append(out, float64(s.ceBefore), float64(s.ueoBefore))
	out = append(out, s.committed.all.stats().rowDiffAvg)
	lead := Missing
	if s.firstEventTime.Before(s.firstUERTime) {
		lead = hours(s.firstUERTime.Sub(s.firstEventTime))
	}
	out = append(out, lead)
	rate := Missing
	if lead > 0 {
		rate = float64(s.ceBefore) / lead
	}
	out = append(out, rate)
	out = append(out, s.committed.uer.stats().dtAvg)
	if len(out) != patternFeatureCount {
		panic(fmt.Sprintf("features: pattern vector has %d values, want %d", len(out), patternFeatureCount))
	}
	return out, nil
}

// blockLeadCols is the number of leading block-vector columns that do not
// depend on the block: the three classes' sequence statistics, the event
// count and the time since the last event.
const blockLeadCols = 3*7 + 2

// blockWindow is the block-independent part of a window's block vectors,
// computed once per decision: the leading columns verbatim, plus the values
// the later block-independent columns (and the cluster-centre distances)
// derive from.
type blockWindow struct {
	lead            [blockLeadCols]float64
	anchorRow       int
	uerRows         float64
	uerMean, ceMean float64 // Missing without events of the class
}

// windowAt computes the window's block-independent values.
func (s *BankState) windowAt(anchorRow int, now time.Time) blockWindow {
	w := blockWindow{anchorRow: anchorRow, uerRows: float64(s.uerRows.size()), uerMean: Missing, ceMean: Missing}
	i := 0
	for _, a := range [...]*seqAccum{&s.blkCE, &s.blkUEO, &s.blkUER} {
		st := a.stats()
		i += copy(w.lead[i:], []float64{
			float64(st.count),
			st.rowDiffMin, st.rowDiffMax, st.rowDiffAvg,
			st.dtMin, st.dtMax, st.dtAvg,
		})
	}
	sinceLast := Missing
	if s.events > 0 {
		sinceLast = hours(now.Sub(s.lastTime))
	}
	w.lead[i], w.lead[i+1] = float64(s.events), sinceLast
	if s.blkUER.count > 0 {
		w.uerMean = s.uerRowSum / float64(s.blkUER.count)
	}
	if s.blkCE.count > 0 {
		w.ceMean = s.ceRowSum / float64(s.blkCE.count)
	}
	return w
}

// fillBlock writes one block's vector into row, whose length and capacity
// must both be BlockFeatureCount (so a miscounted append cannot spill into a
// neighbouring row unnoticed).
func (s *BankState) fillBlock(row []float64, w *blockWindow, block int) {
	out := row[:copy(row, w.lead[:])]

	lo, hi := s.spec.BlockRange(w.anchorRow, block)
	centre := (lo + hi) / 2
	offset := centre - w.anchorRow
	out = append(out, float64(offset), math.Abs(float64(offset)))

	prior, priorUER := 0, 0
	for r := lo; r <= hi; r++ {
		if rc, ok := s.rowCounts[r]; ok {
			prior += rc.total
			priorUER += rc.uer
		}
	}
	out = append(out, float64(prior), float64(priorUER))

	out = append(out, s.ceRows.nearest(centre), s.ueoRows.nearest(centre), s.uerRows.nearest(centre))
	out = append(out, w.uerRows, float64(w.anchorRow))

	if w.uerMean == Missing {
		out = append(out, Missing, Missing)
	} else {
		out = append(out, w.uerMean-float64(w.anchorRow), math.Abs(float64(centre)-w.uerMean))
	}
	if w.ceMean == Missing {
		out = append(out, Missing)
	} else {
		out = append(out, math.Abs(float64(centre)-w.ceMean))
	}

	if len(out) != BlockFeatureCount {
		panic(fmt.Sprintf("features: block vector has %d values, want %d", len(out), BlockFeatureCount))
	}
}

// BlockVectorsInto writes the §IV-D feature vectors of every block of the
// window anchored at anchorRow into dst, row-major: block b's vector is
// dst[b*BlockFeatureCount:(b+1)*BlockFeatureCount], bit-identical to
// BlockVector(anchorRow, b, now). dst must hold at least
// NumBlocks()*BlockFeatureCount values. It does not allocate, and the
// block-independent columns — the three sequence statistics among them —
// are computed once for the window instead of once per block.
func (s *BankState) BlockVectorsInto(dst []float64, anchorRow int, now time.Time) {
	w := s.windowAt(anchorRow, now)
	for b := 0; b < s.spec.NumBlocks(); b++ {
		s.fillBlock(dst[b*BlockFeatureCount:(b+1)*BlockFeatureCount:(b+1)*BlockFeatureCount], &w, b)
	}
}

// BlockVector returns the §IV-D feature vector for one prediction block:
// one row of BlockVectorsInto, bit-identical to the batch reference over
// the events observed so far. anchorRow is the last observed UER row; now
// is the decision time.
func (s *BankState) BlockVector(anchorRow, block int, now time.Time) ([]float64, error) {
	if block < 0 || block >= s.spec.NumBlocks() {
		return nil, fmt.Errorf("features: block %d out of [0,%d)", block, s.spec.NumBlocks())
	}
	out := make([]float64, BlockFeatureCount)
	w := s.windowAt(anchorRow, now)
	s.fillBlock(out, &w, block)
	return out, nil
}

// StateFootprint is a point-in-time estimate of one BankState's memory, for
// the bounded-memory monitoring the online engine exposes.
type StateFootprint struct {
	// Events is the number of events observed (NOT retained — the state
	// holds no event buffer).
	Events int
	// TrackedRows is the total entries across the per-row structures (the
	// only parts that grow at all); each is bounded by the bank's distinct
	// error rows, hence by the geometry's RowsPerBank.
	TrackedRows int
	// ApproxBytes estimates resident bytes: a fixed accumulator core plus
	// TrackedRows-proportional structures.
	ApproxBytes int
}

// Per-entry size estimates for Footprint. Rough by design: the point is
// that the total is proportional to tracked rows, not to events observed.
const (
	bankStateFixedBytes = 704 // the fixed-size accumulators and bookkeeping
	mapEntryBytes       = 48  // approximate per-entry share of a small-valued map
	rowEntryBytes       = 8   // one int row in a sorted set
)

// Footprint reports the state's current size. Cost is O(1).
func (s *BankState) Footprint() StateFootprint {
	tracked := len(s.rowCounts) + s.ceRows.size() + s.ueoRows.size() + s.uerRows.size() +
		len(s.budgetRows) + len(s.budgetSeen)
	bytes := bankStateFixedBytes +
		(len(s.rowCounts)+len(s.budgetSeen))*mapEntryBytes +
		(cap(s.ceRows.rows)+cap(s.ueoRows.rows)+cap(s.uerRows.rows)+cap(s.budgetRows))*rowEntryBytes
	return StateFootprint{Events: s.events, TrackedRows: tracked, ApproxBytes: bytes}
}

// seqAccum incrementally maintains one error class's seqStats: O(1) per
// observation, O(1) memory. The float operations mirror newSeqStats
// exactly (same formulas, same accumulation order) so the resulting stats
// are bit-identical to a batch pass over the same sequence.
type seqAccum struct {
	count    int
	lastRow  int
	lastTime time.Time

	rowMin, rowMax                     float64
	rowDiffMin, rowDiffMax, rowDiffSum float64
	dtMin, dtMax, dtSum                float64
}

// observe folds the next event of the sequence.
func (a *seqAccum) observe(row int, t time.Time) {
	r := float64(row)
	if a.count == 0 {
		a.rowMin, a.rowMax = r, r
	} else {
		if r < a.rowMin {
			a.rowMin = r
		}
		if r > a.rowMax {
			a.rowMax = r
		}
		d := math.Abs(float64(row - a.lastRow))
		dt := hours(t.Sub(a.lastTime))
		if a.count == 1 {
			a.rowDiffMin, a.rowDiffMax = d, d
			a.dtMin, a.dtMax = dt, dt
		} else {
			if d < a.rowDiffMin {
				a.rowDiffMin = d
			}
			if d > a.rowDiffMax {
				a.rowDiffMax = d
			}
			if dt < a.dtMin {
				a.dtMin = dt
			}
			if dt > a.dtMax {
				a.dtMax = dt
			}
		}
		a.rowDiffSum += d
		a.dtSum += dt
	}
	a.lastRow, a.lastTime = row, t
	a.count++
}

// stats converts the accumulator into the seqStats newSeqStats would
// return for the same sequence.
func (a *seqAccum) stats() seqStats {
	s := seqStats{
		count:  a.count,
		rowMin: Missing, rowMax: Missing,
		rowDiffMin: Missing, rowDiffMax: Missing, rowDiffAvg: Missing,
		dtMin: Missing, dtMax: Missing, dtAvg: Missing,
	}
	if a.count == 0 {
		return s
	}
	s.rowMin, s.rowMax = a.rowMin, a.rowMax
	if a.count < 2 {
		return s
	}
	n := float64(a.count - 1)
	s.rowDiffMin, s.rowDiffMax, s.rowDiffAvg = a.rowDiffMin, a.rowDiffMax, a.rowDiffSum/n
	s.dtMin, s.dtMax, s.dtAvg = a.dtMin, a.dtMax, a.dtSum/n
	return s
}

// rowSet is a sorted set of distinct rows supporting O(log n)
// nearest-row queries. Insertion is O(n) in the set size but each distinct
// row is inserted exactly once, and the set is bounded by the bank's rows,
// so total insertion work over a session's life is bounded by geometry —
// independent of event count.
type rowSet struct {
	rows []int
}

// add inserts row if absent, reporting whether it was new.
func (r *rowSet) add(row int) bool {
	i := sort.SearchInts(r.rows, row)
	if i < len(r.rows) && r.rows[i] == row {
		return false
	}
	r.rows = append(r.rows, 0)
	copy(r.rows[i+1:], r.rows[i:])
	r.rows[i] = row
	return true
}

// size returns the number of distinct rows.
func (r *rowSet) size() int { return len(r.rows) }

// nearest returns the minimum |row - target| over the set, or Missing when
// empty. The value equals nearestRowDistance over any event sequence
// containing exactly these rows.
func (r *rowSet) nearest(target int) float64 {
	if len(r.rows) == 0 {
		return Missing
	}
	i := sort.SearchInts(r.rows, target)
	best := Missing
	if i < len(r.rows) {
		best = math.Abs(float64(r.rows[i] - target))
	}
	if i > 0 {
		if d := math.Abs(float64(r.rows[i-1] - target)); best == Missing || d < best {
			best = d
		}
	}
	return best
}
