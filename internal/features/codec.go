package features

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"cordial/internal/bincodec"
	"cordial/internal/ecc"
)

// Binary codec for BankState, the payload format of the online engine's
// snapshots. The encoding is exhaustive and exact: a restored state
// continues producing vectors bit-identical to the state that was encoded —
// the property the crash≡no-crash equivalence tests pin — and encodes to
// the same bytes again. The format is versioned; decoding a newer or unknown
// version fails cleanly rather than misinterpreting bytes. Version 2 appends
// the error-bit accumulator; version 1 snapshots still decode, with the
// accumulator empty (their events carried no error bits).
//
// The layout predates the state's fixed-width representation and is kept
// byte for byte (golden_test.go): integers are int64, timestamps seconds +
// nanoseconds, sequence extremes and the row-difference sum float64, time
// extremes float64 hours, and some sections repeat what others imply
// (redundant below) — among them the CE, UEO and UER row lists, which the
// per-row table's bits and counts imply. One walk over the fields
// (BankState.code) both writes and reads it; reading refuses everything the
// wider layout can say that the narrower state cannot hold — value ranges,
// unsorted or repeated rows, redundant sections that disagree with their
// source — so a decoded state is always one MarshalBinary reproduces exactly.
const (
	bankStateMagic     = "CBNK"
	bankStateVersion   = 2
	bankStateVersionV1 = 1
)

// maxCodecEntries bounds the decoded configuration values and the per-row
// table's length. Both are bounded by a bank's distinct rows (tens of
// thousands), so anything near this limit in a snapshot is corruption.
const maxCodecEntries = 1 << 24

// imageName names the image in codec errors.
const imageName = "features: bank state image"

// whole codes an integer the layout holds as a float64: reading must find
// exactly an integer in [0, max].
func whole[T int32 | int64](c *bincodec.Cursor, p *T, max int64) {
	f := float64(*p)
	c.F64(&f)
	if !(f >= 0 && f <= float64(max)) || float64(int64(f)) != f || math.Signbit(f) {
		c.Fail("value %v is not an integer in [0, %d]", f, max)
		return
	}
	*p = T(f)
}

// span codes a duration the layout holds as float64 hours. Reading takes a
// duration whose hours() is exactly the stored value: any duration with that
// image will do — hours() is monotonic, so later min/max updates and stats()
// cannot tell them apart — and a value that is no duration's image is
// corruption.
func span(c *bincodec.Cursor, p *time.Duration) {
	h := hours(*p)
	c.F64(&h)
	if !c.Decode {
		return
	}
	est := h * float64(time.Hour)
	if !(math.Abs(est) < 9e18) { // leaves the bracket below inside int64
		c.Fail("time span of %v hours", h)
		return
	}
	// The estimate is within a few ulps of an answer and usually is one;
	// otherwise bracket it and bisect for the smallest.
	d := time.Duration(math.Round(est))
	if math.Float64bits(hours(d)) != math.Float64bits(h) {
		slack := time.Duration(math.Abs(est)/(1<<49)) + 2
		lo, hi := d-slack, d+slack
		for lo < hi {
			if mid := lo + (hi-lo)/2; hours(mid) < h {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if d = lo; math.Float64bits(hours(d)) != math.Float64bits(h) {
			c.Fail("%v hours is not a whole number of nanoseconds", h)
			return
		}
	}
	*p = d
}

// CodeObs walks an observation log of at most max entries, 19 bytes each
// (timestamp, 32-bit row, error bits, class), writing it or reading it. The
// log is a bank's history before its first UER, so reading refuses what such
// a history cannot hold or a BankState could not take over: a UER or an
// unknown class, a row beyond 31 bits, an unset timestamp. Timestamps may
// run backwards — the engine folds late events as they arrive, and the log
// must stay encodable whenever the state it stands for would be. Reading fills
// *obs in place when its capacity holds the log (a caller decoding many logs
// passes one buffer) and allocates otherwise.
func CodeObs(c *bincodec.Cursor, obs *[]Obs, max int) {
	n := len(*obs)
	c.Count(&n, max, 19)
	if c.Decode {
		if cap(*obs) < n {
			*obs = make([]Obs, n)
		}
		*obs = (*obs)[:n]
	}
	for i := range *obs {
		o := &(*obs)[i]
		row := uint32(o.row)
		c.Time(&o.t)
		c.U32(&row)
		c.U16(&o.bits)
		c.U8(&o.class)
		o.row = int32(row)
		if o.t == unsetTime || o.row < 0 || ecc.Class(o.class) >= ecc.ClassUER {
			c.Fail("observation %d (time %d, row %d, class %d) is not a quiet bank's", i, o.t, o.row, o.class)
		}
	}
}

func (a *seqAccum) code(c *bincodec.Cursor) {
	last := a.lastTime
	if a.count == 0 {
		last = unsetTime
	}
	bincodec.Ranged(c, &a.count, math.MaxInt32)
	bincodec.Ranged(c, &a.lastRow, math.MaxInt32)
	c.Time(&last)
	if (a.count == 0) != (last == unsetTime) {
		c.Fail("sequence of %d events with last time set=%t", a.count, last != unsetTime)
	}
	if a.count > 0 {
		a.lastTime = last
	}
	whole(c, &a.rowMin, math.MaxInt32)
	whole(c, &a.rowMax, math.MaxInt32)
	whole(c, &a.rowDiffMin, math.MaxInt32)
	whole(c, &a.rowDiffMax, math.MaxInt32)
	whole(c, &a.rowDiffSum, 1<<53)
	span(c, &a.dtMin)
	span(c, &a.dtMax)
	c.F64(&a.dtSum)
}

func (p *patternAccums) code(c *bincodec.Cursor) {
	p.ce.code(c)
	p.ueo.code(c)
	p.uer.code(c)
	p.all.code(c)
}

// redundant is what the layout stores that the state derives: the staged
// accumulator set (committed plus the events waiting behind the cutoff —
// until the budget is exhausted those are all CEs and UEOs, i.e. the block
// accumulators, and stagedAll; afterwards nothing can be promoted and the
// set equals committed), the budget rows in first-occurrence order (the
// per-row table's ranks) and their dedupe set (sorted, present while the
// budget is open), the per-row table's CE, UEO and UER rows (in nearClasses
// order), and three presence flags.
type redundant struct {
	staged                             patternAccums
	budget, seen                       []int32
	classRows                          [3][]int32
	open, firstEvent, firstUER, perRow bool
}

func (s *BankState) redundant() redundant {
	r := redundant{
		staged:     s.committed,
		firstEvent: s.firstEventTime != unsetTime,
		firstUER:   s.firstUERTime != unsetTime,
		perRow:     len(s.rows) > 0,
	}
	var ranked []rowEntry
	for _, e := range s.rows {
		if e.rank != 0 {
			ranked = append(ranked, e)
		}
	}
	slices.SortFunc(ranked, func(a, b rowEntry) int { return cmp.Compare(a.rank, b.rank) })
	for _, e := range ranked {
		r.budget = append(r.budget, e.row)
	}
	for k, class := range nearClasses {
		for i := range s.rows {
			if s.rows[i].has(class) {
				r.classRows[k] = append(r.classRows[k], s.rows[i].row)
			}
		}
	}
	if !s.budgetDone {
		r.staged.ce, r.staged.ueo, r.staged.all = s.blkCE, s.blkUEO, s.stagedAll
	}
	if r.open = len(r.budget) > 0 && !s.budgetDone; r.open {
		r.seen = slices.Clone(r.budget)
		slices.Sort(r.seen)
	}
	return r
}

// code walks every field in layout order. Encoding passes the state's own
// redundant sections in r; decoding fills r with what the image says.
func (s *BankState) code(c *bincodec.Cursor, version uint8, r *redundant) {
	bincodec.Ranged(c, &s.cfg.UERBudget, maxUERBudget)
	bincodec.Ranged(c, &s.spec.WindowRadius, maxCodecEntries)
	bincodec.Ranged(c, &s.spec.BlockSize, maxCodecEntries)
	bincodec.Ranged(c, &s.events, math.MaxInt64)

	s.committed.code(c)
	r.staged.code(c)
	bincodec.Rows(c, &r.budget, false)
	c.Flag(&r.open)
	if r.open {
		bincodec.Rows(c, &r.seen, true)
	}
	c.Time(&s.cutoff)
	c.Flag(&s.budgetDone)

	c.Flag(&r.firstEvent)
	c.Time(&s.firstEventTime)
	c.Flag(&r.firstUER)
	c.Time(&s.firstUERTime)
	bincodec.Ranged(c, &s.ceBefore, math.MaxInt32)
	bincodec.Ranged(c, &s.ueoBefore, math.MaxInt32)
	bincodec.Ranged(c, &s.ceTotal, math.MaxInt32)
	bincodec.Ranged(c, &s.ueoTotal, math.MaxInt32)
	c.Time(&s.runTime)
	bincodec.Ranged(c, &s.ceAtRun, math.MaxInt32)
	bincodec.Ranged(c, &s.ueoAtRun, math.MaxInt32)

	s.blkCE.code(c)
	s.blkUEO.code(c)
	s.blkUER.code(c)
	c.F64(&s.ceRowSum)
	c.F64(&s.uerRowSum)
	for k := range r.classRows {
		bincodec.Rows(c, &r.classRows[k], true)
	}
	c.Flag(&r.perRow)
	if r.perRow {
		n := len(s.rows)
		c.Count(&n, maxCodecEntries, 24)
		if c.Decode {
			s.rows = make([]rowEntry, n)
		}
		for i := range s.rows {
			e := &s.rows[i]
			bincodec.Ranged(c, &e.row, math.MaxInt32)
			bincodec.Ranged(c, &e.total, math.MaxUint32)
			bincodec.Ranged(c, &e.uer, math.MaxUint32)
			if i > 0 && e.row <= s.rows[i-1].row {
				c.Fail("per-row table not strictly ascending")
			}
		}
	}
	c.Time(&s.lastTime)

	if version >= bankStateVersion {
		b := &s.errBits
		bincodec.Ranged(c, &b.count, math.MaxUint32)
		c.U8(&b.dqUnion)
		c.U8(&b.burstUnion)
		for i := range b.dqPinCounts {
			bincodec.Ranged(c, &b.dqPinCounts[i], math.MaxUint32)
		}
		bincodec.Ranged(c, &b.dqPopSum, math.MaxUint32)
		bincodec.Ranged(c, &b.burstPopSum, math.MaxUint32)
	}
}

// MarshalBinary encodes the full state. The result is self-describing
// (magic + version) and decodable by UnmarshalBankState; the error is that
// of a state the layout cannot hold, which no event sequence produces.
func (s *BankState) MarshalBinary() ([]byte, error) {
	r := s.redundant()
	// 1.3 KB of fixed-size fields, 8 bytes per listed row, 24 per table entry.
	size := 1320 + 8*(len(r.budget)+len(r.seen)+len(r.classRows[0])+len(r.classRows[1])+len(r.classRows[2])) + 24*len(s.rows)
	c := &bincodec.Cursor{B: append(make([]byte, 0, size), bankStateMagic...), What: imageName}
	c.B = append(c.B, bankStateVersion)
	s.code(c, bankStateVersion, &r)
	return c.B, c.Err
}

// UnmarshalBankState decodes a state produced by MarshalBinary. Corrupt,
// truncated or out-of-range input returns an error, never a panic and never
// a silently truncated value.
func UnmarshalBankState(data []byte) (*BankState, error) {
	if len(data) < len(bankStateMagic)+1 {
		return nil, fmt.Errorf("features: bank state too short (%d bytes)", len(data))
	}
	if string(data[:4]) != bankStateMagic {
		return nil, fmt.Errorf("features: bad bank state magic")
	}
	version := data[4]
	if version != bankStateVersion && version != bankStateVersionV1 {
		return nil, fmt.Errorf("features: unsupported bank state version %d", version)
	}
	c := &bincodec.Cursor{B: data, Off: 5, Decode: true, What: imageName}
	s, r := &BankState{}, redundant{}
	s.code(c, version, &r)
	s.stagedAll = r.staged.all
	if err := c.Done(); err != nil {
		return nil, err
	}
	if s.cfg.UERBudget <= 0 {
		return nil, fmt.Errorf("features: decoded non-positive UER budget %d", s.cfg.UERBudget)
	}
	if err := s.spec.Validate(); err != nil {
		return nil, err
	}
	s.markClassRows(&r.classRows)
	if n := len(r.budget); r.firstUER != (n > 0) || n > s.cfg.UERBudget ||
		s.budgetDone != (n == s.cfg.UERBudget) || !s.rankBudget(r.budget) || n != s.budgetLen() {
		return nil, fmt.Errorf("features: bank state UER budget bookkeeping is inconsistent")
	}
	want := s.redundant()
	if r.staged != want.staged || !slices.Equal(r.seen, want.seen) || !slices.EqualFunc(r.classRows[:], want.classRows[:], slices.Equal) ||
		r.open != want.open || r.firstEvent != want.firstEvent || r.firstUER != want.firstUER || r.perRow != want.perRow {
		return nil, fmt.Errorf("features: bank state sections disagree with the fields they are derived from")
	}
	// The block accumulators and the table count the same events: a class
	// has rows exactly when it has events (windowAt relies on it).
	for k, a := range [...]*seqAccum{&s.blkCE, &s.blkUEO, &s.blkUER} {
		if (a.count > 0) != (len(r.classRows[k]) > 0) {
			return nil, fmt.Errorf("features: bank state has %d %v events but %d such rows", a.count, nearClasses[k], len(r.classRows[k]))
		}
	}
	return s, nil
}

// markClassRows sets the decoded per-row table's CE and UEO bits from the
// image's CE and UEO row lists and counts its UER rows. A listed row the
// table lacks, like a UER list that is not the table's rows with UERs, leaves
// the lists unlike what the table derives, which UnmarshalBankState refuses.
func (s *BankState) markClassRows(lists *[3][]int32) {
	for _, row := range lists[0] {
		if i, found := s.findRow(int(row)); found {
			s.rows[i].ce = true
		}
	}
	for _, row := range lists[1] {
		if i, found := s.findRow(int(row)); found {
			s.rows[i].ueo = true
		}
	}
	for i := range s.rows {
		if s.rows[i].uer > 0 {
			s.uerRows++
		}
	}
}

// rankBudget ranks the decoded per-row table's budget rows in list order,
// reporting whether each is a distinct UER row of the table.
func (s *BankState) rankBudget(list []int32) bool {
	for k, row := range list {
		i, found := s.findRow(int(row))
		if !found || s.rows[i].uer == 0 || s.rows[i].rank != 0 {
			return false
		}
		s.rows[i].rank = uint16(k + 1)
	}
	return true
}

// Config returns the pattern config the state was created with.
func (s *BankState) Config() PatternConfig { return s.cfg }

// Spec returns the block spec the state was created with.
func (s *BankState) Spec() BlockSpec { return s.spec }
