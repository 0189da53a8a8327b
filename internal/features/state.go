package features

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"cordial/internal/bincodec"
	"cordial/internal/ecc"
	"cordial/internal/mcelog"
	"cordial/internal/rowset"
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
// timestamps, the vectors PatternVector and BlockVector return are
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
	// cutoff — the time of the latest first-K distinct UER — so committed
	// covers exactly the visible events. Events after the cutoff become
	// visible if a later distinct UER extends it; until the budget is
	// exhausted every CE and UEO is such a candidate, so the block stage's
	// blkCE/blkUEO double as their staging accumulators and only the
	// all-events sequence needs one of its own. Promotion is a struct copy.
	committed patternAccums
	stagedAll seqAccum
	// The budget rows, the first K distinct UER rows (K = cfg.UERBudget), are
	// the per-row table's ranked entries: all of its UER rows until
	// budgetDone, then K of them (budgetLen). cutoff is the latest one's
	// first UER time.
	cutoff     int64
	budgetDone bool
	// uerRows counts the per-row table's UER rows.
	uerRows int32

	// firstEventTime and firstUERTime are unsetTime until the first event
	// and the first UER.
	firstEventTime, firstUERTime int64
	// ceBefore/ueoBefore are the §IV-B counts strictly before the first
	// UER, frozen the moment it arrives.
	ceBefore, ueoBefore int32
	// Pre-first-UER tallies. Ties at the first UER's own timestamp must
	// not count ("strictly before"), so the trailing run of
	// equal-timestamp events is tracked separately and subtracted.
	ceTotal, ueoTotal int32
	ceAtRun, ueoAtRun int32
	runTime           int64

	// Block stage (§IV-D). These cover everything observed (block
	// decisions use the full history up to the decision time). rows is the
	// bank's per-row table, sorted by row: every row an event has landed on,
	// with the facts the block features read of it.
	blkCE, blkUEO, blkUER seqAccum
	ceRowSum, uerRowSum   float64
	rows                  []rowEntry
	lastTime              int64

	// Error-bit aggregates (intra-word DQ/burst patterns), covering every
	// observed event with a nonzero pattern.
	errBits errBitAccum
}

// Timestamps inside the state are int64 Unix nanoseconds: a third of a
// time.Time, and for the instants mcelog.ValidateTime admits ([1970, 2200))
// Duration(t-last) is exactly t.Sub(last), so every derived feature is
// unchanged. unsetTime marks a field no event has written; it orders before
// every real instant, which is what the cutoff comparison wants.
const unsetTime = bincodec.UnsetTime

// NewBankState returns an empty accumulator for one bank: Init of a new state.
func NewBankState(cfg PatternConfig, spec BlockSpec) (*BankState, error) {
	s := new(BankState)
	if err := s.Init(cfg, spec); err != nil {
		return nil, err
	}
	return s, nil
}

// maxUERBudget is the largest UERBudget: a budget row's rank is 16 bits.
const maxUERBudget = math.MaxUint16

// Init makes s, in place, an empty accumulator for one bank, dropping what it
// held: a caller that holds the state inside an object of its own (core's
// session) builds it without an allocation of the state's. A non-positive
// UERBudget takes the paper's default of 3.
func (s *BankState) Init(cfg PatternConfig, spec BlockSpec) error {
	if cfg.UERBudget <= 0 {
		cfg.UERBudget = 3
	}
	if cfg.UERBudget > maxUERBudget {
		return fmt.Errorf("features: UER budget %d above %d", cfg.UERBudget, maxUERBudget)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	*s = BankState{cfg: cfg, spec: spec}
	s.Reset()
	return nil
}

// Reset empties the state for another bank under the same configuration: it
// then equals a fresh NewBankState in everything it reports and encodes,
// except that its per-row table keeps its capacity, so a caller folding banks
// one after another (the offline dataset builders and evaluators) allocates it
// once. Footprint counts that kept capacity, which is why a caller holding
// many banks at once gives each its own state.
func (s *BankState) Reset() {
	*s = BankState{cfg: s.cfg, spec: s.spec, rows: s.rows[:0]}
	s.cutoff, s.firstEventTime, s.firstUERTime, s.runTime, s.lastTime = unsetTime, unsetTime, unsetTime, unsetTime, unsetTime
}

// patternAccums is one set of §IV-B sequence accumulators: the three
// per-class subsequences plus the all-events sequence.
type patternAccums struct {
	ce, ueo, uer, all seqAccum
}

// rowEntry is one row of the per-row table: its events and UERs (the
// block-local prior counts), whether a CE and a UEO have landed on it, and its
// rank among the budget rows — k for the k-th distinct UER row, 0 for a row
// outside the budget — in what would be padding, so an entry stays 16 bytes. A
// row is a UER row when uer > 0.
type rowEntry struct {
	row        int32
	total, uer uint32
	ce, ueo    bool
	rank       uint16
}

// has reports whether an event of class — CE, UEO or UER — has landed on the
// row: whether the row is a member of that class's row set.
func (r *rowEntry) has(class ecc.Class) bool {
	switch class {
	case ecc.ClassCE:
		return r.ce
	case ecc.ClassUEO:
		return r.ueo
	}
	return r.uer > 0
}

// Obs is what Observe reads of an event: its timestamp, row, class and error
// bits, 16 bytes. A bank that has logged no UER can keep these instead of a
// BankState (the stream engine's stored banks do): Replay over the stored
// values runs the very code Observe would have run on the very same bytes.
type Obs struct {
	t     int64 // Unix nanoseconds
	row   int32
	bits  uint16
	class uint8
}

// ObsOf extracts an event's observation. Rows and per-class event counts are
// held in 32 bits (a bank has at most RowsPerBank rows, far below 2³¹) and
// timestamps as Unix nanoseconds (years 1678–2262; mcelog.ValidateTime
// admits 1970–2200). A class that is none of CE, UEO and UER folds like
// ClassNone, whatever its value.
func ObsOf(e mcelog.Event) Obs {
	return MakeObs(e.Time.UnixNano(), int32(e.Addr.Row), e.Class, e.Bits)
}

// MakeObs is the observation of an event at unixNano on row with the given
// class and error bits: what ObsOf makes of such an event, for callers that
// hold its fields rather than the event.
func MakeObs(unixNano int64, row int32, class ecc.Class, bits mcelog.ErrBits) Obs {
	if class > ecc.ClassUER {
		class = ecc.ClassNone
	}
	return Obs{t: unixNano, row: row, bits: uint16(bits), class: uint8(class)}
}

// UnixNano is the observed event's timestamp.
func (o Obs) UnixNano() int64 { return o.t }

// Row, Class and Bits are the observed event's other fields: MakeObs of the
// four accessors is o.
func (o Obs) Row() int32 { return o.row }

func (o Obs) Class() ecc.Class { return ecc.Class(o.class) }

func (o Obs) Bits() mcelog.ErrBits { return mcelog.ErrBits(o.bits) }

// Observe folds one event into the state. Events must arrive in
// nondecreasing time order (the same contract the batch extractors place
// on their input slice); the equivalence guarantee holds only then.
func (s *BankState) Observe(e mcelog.Event) { s.observe(ObsOf(e)) }

// Replay folds stored observations, oldest first.
func (s *BankState) Replay(obs []Obs) {
	for _, o := range obs {
		s.observe(o)
	}
}

func (s *BankState) observe(o Obs) {
	s.events++
	if s.firstEventTime == unsetTime {
		s.firstEventTime = o.t
	}
	i, found := s.findRow(int(o.row))
	if !found {
		s.rows = rowset.InsertAt(s.rows, i, rowEntry{row: o.row})
	}
	r, class := &s.rows[i], ecc.Class(o.class)
	s.observePattern(r, o.t, class)
	s.observeBlock(r, o.t, class)
	s.errBits.observe(mcelog.ErrBits(o.bits))
}

// budgetLen is the number of budget rows.
func (s *BankState) budgetLen() int {
	if s.budgetDone {
		return s.cfg.UERBudget
	}
	return int(s.uerRows)
}

// observePattern maintains the §IV-B aggregates. It runs before
// observeBlock, so blkCE/blkUEO still hold exactly the events before this
// one, and r — the event's row — the events on it before this one.
func (s *BankState) observePattern(r *rowEntry, t int64, class ecc.Class) {
	row, isUER := r.row, class == ecc.ClassUER
	if isUER && s.firstUERTime == unsetTime {
		// Freeze the strictly-before-first-UER counts. Events in the
		// trailing run share this UER's timestamp and are excluded.
		s.firstUERTime = t
		s.ceBefore, s.ueoBefore = s.ceTotal, s.ueoTotal
		if s.runTime == t {
			s.ceBefore -= s.ceAtRun
			s.ueoBefore -= s.ueoAtRun
		}
	}
	if s.firstUERTime == unsetTime {
		if s.runTime != t {
			s.runTime, s.ceAtRun, s.ueoAtRun = t, 0, 0
		}
		switch class {
		case ecc.ClassCE:
			s.ceTotal++
			s.ceAtRun++
		case ecc.ClassUEO:
			s.ueoTotal++
			s.ueoAtRun++
		}
	}
	if isUER && !s.budgetDone && r.uer == 0 {
		// A new distinct UER row under budget extends the cutoff:
		// everything staged becomes visible, and this UER joins the
		// deduplicated first-K subsequence.
		n := s.budgetLen() + 1
		r.rank = uint16(n)
		s.stagedAll.observe(row, t)
		s.committed.ce, s.committed.ueo, s.committed.all = s.blkCE, s.blkUEO, s.stagedAll
		s.committed.uer.observe(row, t)
		s.cutoff = t
		s.budgetDone = n >= s.cfg.UERBudget
		return
	}
	// Non-extending event: a CE, a UEO, a repeat-row UER, or a UER past
	// the budget. Repeat and past-budget UERs never enter the per-class
	// UER statistics (the batch path deduplicates them away) but do count
	// toward the all-events sequence when visible.
	if !s.budgetDone {
		s.stagedAll.observe(row, t)
	}
	if t > s.cutoff {
		return // not visible unless a later distinct UER extends the cutoff
	}
	switch class {
	case ecc.ClassCE:
		s.committed.ce.observe(row, t)
	case ecc.ClassUEO:
		s.committed.ueo.observe(row, t)
	}
	s.committed.all.observe(row, t)
}

// observeBlock maintains the §IV-D aggregates.
func (s *BankState) observeBlock(r *rowEntry, t int64, class ecc.Class) {
	row := r.row
	r.total++
	switch class {
	case ecc.ClassCE:
		s.blkCE.observe(row, t)
		s.ceRowSum += float64(row)
		r.ce = true
	case ecc.ClassUEO:
		s.blkUEO.observe(row, t)
		r.ueo = true
	case ecc.ClassUER:
		s.blkUER.observe(row, t)
		s.uerRowSum += float64(row)
		if r.uer == 0 {
			s.uerRows++
		}
		r.uer++
	}
	s.lastTime = t
}

// findRow locates row in the sorted per-row table.
func (s *BankState) findRow(row int) (int, bool) {
	return slices.BinarySearchFunc(s.rows, row, func(r rowEntry, row int) int {
		return cmp.Compare(int(r.row), row)
	})
}

// DistinctUERRows returns the number of distinct rows with at least one
// observed UER (not capped by the pattern budget).
func (s *BankState) DistinctUERRows() int { return int(s.uerRows) }

// PatternVector returns the §IV-B feature vector over the events observed
// so far, bit-identical to referencePatternVector over the same prefix. It
// returns an error until the first UER has been observed (no pattern to
// classify). It is PatternVectorInto a fresh slice.
func (s *BankState) PatternVector() ([]float64, error) {
	out := make([]float64, patternFeatureCount)
	if err := s.PatternVectorInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// PatternVectorInto writes PatternVector's values into dst, whose length must
// be len(PatternFeatureNames()). It does not allocate.
func (s *BankState) PatternVectorInto(dst []float64) error {
	if s.firstUERTime == unsetTime {
		return fmt.Errorf("features: bank has no UER events")
	}
	out := dst[:0:patternFeatureCount]
	for _, st := range [...]seqStats{s.committed.ce.stats(), s.committed.ueo.stats(), s.committed.uer.stats()} {
		out = append(out,
			st.rowMin, st.rowMax,
			st.rowDiffMin, st.rowDiffMax, st.rowDiffAvg,
			st.dtMin, st.dtMax,
		)
	}
	lo, hi := s.budgetSpan()
	out = append(out, float64(hi-lo))
	out = append(out, float64(s.budgetLen()))
	out = append(out, float64(s.ceBefore), float64(s.ueoBefore))
	out = append(out, s.committed.all.stats().rowDiffAvg)
	lead := Missing
	if s.firstEventTime < s.firstUERTime {
		lead = hours(time.Duration(s.firstUERTime - s.firstEventTime))
	}
	out = append(out, lead)
	rate := Missing
	if lead > 0 {
		rate = float64(s.ceBefore) / lead
	}
	out = append(out, rate)
	out = append(out, s.committed.uer.stats().dtAvg)
	if len(out) != len(dst) {
		panic(fmt.Sprintf("features: pattern vector has %d values, want %d", len(out), len(dst)))
	}
	return nil
}

// budgetSpan returns the lowest and the highest budget row, which exist once a
// UER has been observed.
func (s *BankState) budgetSpan() (lo, hi int32) {
	first := slices.IndexFunc(s.rows, func(r rowEntry) bool { return r.rank != 0 })
	last := len(s.rows) - 1
	for s.rows[last].rank == 0 {
		last--
	}
	return s.rows[first].row, s.rows[last].row
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
	// Positions in the per-row table. A window's blocks ascend, so the table
	// is binary-searched once, for the window's first row, and fillBlock only
	// walks forward from there: perRow for the prior counts, near for the
	// nearest-row distances. For each class of nearClasses, prev is the index
	// of the last of its rows below near (-1 for none) and next that of the
	// first at or above near (len for none, -1 until looked for).
	perRow, near int
	prev, next   [3]int
}

// nearClasses are the classes of the nearest-row distances, in column order.
var nearClasses = [3]ecc.Class{ecc.ClassCE, ecc.ClassUEO, ecc.ClassUER}

// windowAt computes the window's block-independent values.
func (s *BankState) windowAt(anchorRow int, now time.Time) blockWindow {
	w := blockWindow{anchorRow: anchorRow, uerRows: float64(s.uerRows), uerMean: Missing, ceMean: Missing}
	accums := [...]*seqAccum{&s.blkCE, &s.blkUEO, &s.blkUER}
	i := 0
	for _, a := range accums {
		st := a.stats()
		i += copy(w.lead[i:], []float64{
			float64(st.count),
			st.rowDiffMin, st.rowDiffMax, st.rowDiffAvg,
			st.dtMin, st.dtMax, st.dtAvg,
		})
	}
	sinceLast := Missing
	if s.events > 0 {
		sinceLast = hours(now.Sub(time.Unix(0, s.lastTime)))
	}
	w.lead[i], w.lead[i+1] = float64(s.events), sinceLast
	if s.blkUER.count > 0 {
		w.uerMean = s.uerRowSum / float64(s.blkUER.count)
	}
	if s.blkCE.count > 0 {
		w.ceMean = s.ceRowSum / float64(s.blkCE.count)
	}
	first, _ := s.spec.BlockRange(anchorRow, 0)
	w.perRow, _ = s.findRow(first)
	w.near = w.perRow
	for k, class := range nearClasses {
		w.prev[k], w.next[k] = -1, -1
		if accums[k].count == 0 {
			w.next[k] = len(s.rows) // no row of the class: nothing to look for
			continue
		}
		for j := w.near - 1; j >= 0; j-- {
			if s.rows[j].has(class) {
				w.prev[k] = j
				break
			}
		}
	}
	return w
}

// nextOf returns the index of the first row of class at or after index i of
// the per-row table, or len for none.
func (s *BankState) nextOf(class ecc.Class, i int) int {
	for i < len(s.rows) && !s.rows[i].has(class) {
		i++
	}
	return i
}

// fillBlock writes one block's vector into row, whose length and capacity
// must both be BlockFeatureCount (so a miscounted append cannot spill into a
// neighbouring row unnoticed). Successive calls on one window must ask for
// ascending blocks.
func (s *BankState) fillBlock(row []float64, w *blockWindow, block int) {
	out := row[:copy(row, w.lead[:])]

	lo, hi := s.spec.BlockRange(w.anchorRow, block)
	centre := (lo + hi) / 2
	offset := centre - w.anchorRow
	out = append(out, float64(offset), math.Abs(float64(offset)))

	prior, priorUER := 0, 0
	for ; w.perRow < len(s.rows) && int(s.rows[w.perRow].row) <= hi; w.perRow++ {
		if r := &s.rows[w.perRow]; int(r.row) >= lo {
			prior += int(r.total)
			priorUER += int(r.uer)
		}
	}
	out = append(out, float64(prior), float64(priorUER))

	for ; w.near < len(s.rows) && int(s.rows[w.near].row) < centre; w.near++ {
		r := &s.rows[w.near]
		if r.ce {
			w.prev[0] = w.near
		}
		if r.ueo {
			w.prev[1] = w.near
		}
		if r.uer > 0 {
			w.prev[2] = w.near
		}
	}
	for k, class := range nearClasses {
		if w.next[k] < w.near {
			w.next[k] = s.nextOf(class, w.near)
		}
		out = append(out, s.nearest(w.prev[k], w.next[k], centre))
	}
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

// StateFootprint is a point-in-time estimate of one bank's feature-state
// memory, for the bounded-memory monitoring the online engine exposes.
type StateFootprint struct {
	// Events is the number of events observed. A BankState retains none of
	// them.
	Events int
	// TrackedRows is the entries of the per-row table, the only part of a
	// BankState that grows at all: bounded by the bank's distinct error rows,
	// hence by the geometry's RowsPerBank.
	TrackedRows int
	// ApproxBytes estimates resident bytes: a fixed accumulator core plus
	// TrackedRows-proportional structures.
	ApproxBytes int
}

// Footprint reports the state's current size: the struct itself plus the
// backing array of the per-row table at its allocated capacity. Cost is O(1).
// A state Reset for another bank reports the capacity its earlier banks left,
// not what the current bank alone would need.
func (s *BankState) Footprint() StateFootprint {
	bytes := int(unsafe.Sizeof(*s)) + cap(s.rows)*int(unsafe.Sizeof(rowEntry{}))
	return StateFootprint{Events: s.events, TrackedRows: len(s.rows), ApproxBytes: bytes}
}

// seqAccum incrementally maintains one error class's seqStats: O(1) per
// observation, 64 bytes. What is integral is held as integers and converted
// at stats(); the result is bit-identical to newSeqStats over the same
// sequence because (a) rows and |row differences| are exact in float64, so
// comparing them as integers picks the same extremes; (b) a sum of integers
// is exact in float64 below 2⁵³, so rowDiffSum converts to the very value
// the float accumulation reaches; (c) hours() is monotonic, so
// hours(min dt) is min(hours(dt)) and likewise for max. Only dtSum, whose
// roundings depend on accumulation order, stays a float and mirrors the
// batch loop exactly.
type seqAccum struct {
	count                  int32
	lastRow                int32
	rowMin, rowMax         int32
	rowDiffMin, rowDiffMax int32
	lastTime               int64
	rowDiffSum             int64
	dtMin, dtMax           time.Duration
	dtSum                  float64
}

// observe folds the next event of the sequence.
func (a *seqAccum) observe(row int32, t int64) {
	if a.count == 0 {
		a.rowMin, a.rowMax = row, row
	} else {
		a.rowMin, a.rowMax = min(a.rowMin, row), max(a.rowMax, row)
		d := row - a.lastRow
		if d < 0 {
			d = -d
		}
		dt := time.Duration(t - a.lastTime)
		if a.count == 1 {
			a.rowDiffMin, a.rowDiffMax = d, d
			a.dtMin, a.dtMax = dt, dt
		} else {
			a.rowDiffMin, a.rowDiffMax = min(a.rowDiffMin, d), max(a.rowDiffMax, d)
			a.dtMin, a.dtMax = min(a.dtMin, dt), max(a.dtMax, dt)
		}
		a.rowDiffSum += int64(d)
		a.dtSum += hours(dt)
	}
	a.lastRow, a.lastTime = row, t
	a.count++
}

// stats converts the accumulator into the seqStats newSeqStats would
// return for the same sequence.
func (a *seqAccum) stats() seqStats {
	s := seqStats{
		count:  int(a.count),
		rowMin: Missing, rowMax: Missing,
		rowDiffMin: Missing, rowDiffMax: Missing, rowDiffAvg: Missing,
		dtMin: Missing, dtMax: Missing, dtAvg: Missing,
	}
	if a.count == 0 {
		return s
	}
	s.rowMin, s.rowMax = float64(a.rowMin), float64(a.rowMax)
	if a.count < 2 {
		return s
	}
	n := float64(a.count - 1)
	s.rowDiffMin, s.rowDiffMax, s.rowDiffAvg = float64(a.rowDiffMin), float64(a.rowDiffMax), float64(a.rowDiffSum)/n
	s.dtMin, s.dtMax, s.dtAvg = hours(a.dtMin), hours(a.dtMax), a.dtSum/n
	return s
}

// nearest returns the minimum |row - target| over one class's rows of the
// per-row table, given the indices of the last of them below target (prev,
// -1 for none) and of the first at or above it (next, len for none): Missing
// when the class has no row. The value equals nearestRowDistance over any
// event sequence with exactly these rows of the class.
func (s *BankState) nearest(prev, next, target int) float64 {
	best := Missing
	if next < len(s.rows) {
		best = math.Abs(float64(int(s.rows[next].row) - target))
	}
	if prev >= 0 {
		if d := math.Abs(float64(int(s.rows[prev].row) - target)); best == Missing || d < best {
			best = d
		}
	}
	return best
}
