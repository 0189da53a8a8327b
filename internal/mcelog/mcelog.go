// Package mcelog models the machine-check error log a baseboard management
// controller (BMC) exports: a stream of timestamped, addressed, classified
// memory-error events. It is the ingestion substrate for everything above
// it — the empirical-study statistics, the feature extractors and the
// Cordial pipeline all consume these records.
//
// The package provides a typed Event record, an in-memory Log with the
// query operations the paper's analyses need, the event's two encodings —
// JSON Lines (codec.go) and a 19-byte record in CRC-checked frames (wire.go)
// — and the one reader of a body in either (body.go).
package mcelog

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
)

// ErrBits encodes the intra-word error pattern of one event, below the
// row/column granularity the address carries: which DQ pins (low byte)
// and which burst positions (high byte) observed corrupted bits in the
// faulting read. "Exploring Error Bits for Memory Failure Prediction"
// shows this pattern separates benign scattered upsets from the
// aggregated pin faults that precede uncorrectable errors; the feature
// extractors accumulate it per bank. Zero means the pattern was not
// reported — BMCs that do not expose syndrome detail emit zero, and all
// codecs preserve it as absent rather than inventing a pattern.
type ErrBits uint16

// MakeErrBits composes an error-bit pattern from a DQ-pin mask and a
// burst-position mask.
func MakeErrBits(dq, burst uint8) ErrBits { return ErrBits(uint16(burst)<<8 | uint16(dq)) }

// DQ returns the mask of DQ pins that saw corrupted bits.
func (b ErrBits) DQ() uint8 { return uint8(b) }

// Burst returns the mask of burst positions that saw corrupted bits.
func (b ErrBits) Burst() uint8 { return uint8(b >> 8) }

// IsZero reports whether no error-bit pattern was recorded.
func (b ErrBits) IsZero() bool { return b == 0 }

// Event is a single logged memory-error observation.
type Event struct {
	// Time is the moment the error was observed.
	Time time.Time
	// Addr locates the error down to row/column granularity.
	Addr hbm.Address
	// Class is the ECC classification (CE, UEO or UER).
	Class ecc.Class
	// Bits is the intra-word error-bit pattern, zero when unreported.
	Bits ErrBits
}

// Timestamp sanity bounds for ingested events. The binary wire record
// carries raw int64 unix-nanos, so a flipped high bit or a poisoned
// producer yields timestamps centuries away from any real observation;
// such events would silently skew windowed analyses and session ageing
// if admitted. The bounds are deliberately loose — decades of slack on
// both sides of any plausible deployment — so they only ever reject
// garbage, never clock skew.
var (
	// MinEventTime is the oldest admissible event timestamp (the Unix
	// epoch: no BMC logged an HBM error before 1970).
	MinEventTime = time.Unix(0, 0).UTC()
	// MaxEventTime is the exclusive upper bound on event timestamps.
	MaxEventTime = time.Date(2200, time.January, 1, 0, 0, 0, 0, time.UTC)
)

// ValidateTime checks a timestamp against the ingestion sanity bounds.
func ValidateTime(t time.Time) error {
	if t.IsZero() {
		return fmt.Errorf("mcelog: event has zero timestamp")
	}
	if t.Before(MinEventTime) {
		return fmt.Errorf("mcelog: event timestamp %v predates %v", t, MinEventTime)
	}
	if !t.Before(MaxEventTime) {
		return fmt.Errorf("mcelog: event timestamp %v is implausibly far in the future (>= %v)", t, MaxEventTime)
	}
	return nil
}

// Validate reports whether the event is well-formed under the geometry.
func (e Event) Validate(g hbm.Geometry) error {
	if e.Class != ecc.ClassCE && e.Class != ecc.ClassUEO && e.Class != ecc.ClassUER {
		return fmt.Errorf("mcelog: event class %v is not a loggable error class", e.Class)
	}
	if err := ValidateTime(e.Time); err != nil {
		return err
	}
	if err := e.Addr.Validate(g); err != nil {
		return fmt.Errorf("mcelog: event address: %w", err)
	}
	return nil
}

// Before reports whether e was observed before other, breaking time ties by
// address (hbm.Address.Compare), then class, then error bits, so sorting is
// total and deterministic.
func (e Event) Before(other Event) bool { return compareEvents(e, other) < 0 }

// compareEvents is Before as a three-way comparison.
func compareEvents(a, b Event) int { return compareEventPtrs(&a, &b) }

// compareEventPtrs is compareEvents without copying either event: the
// instant is compared once, and only a tie looks further.
func compareEventPtrs(a, b *Event) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := a.Addr.Compare(b.Addr); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits, b.Bits)
}

// SortEvents orders events by Before, in place and stably: events Before
// cannot tell apart keep their input order.
func SortEvents(events []Event) { slices.SortStableFunc(events, compareEvents) }

// Merge returns a log of every event of runs, each of which must already be
// in SortEvents order, in that order. It is one k-way merge in which a tie
// goes to the earlier run, so the log is exactly the stable sort of the runs'
// concatenation. The log is allocated once, at its exact size; runs are not
// modified.
func Merge(runs [][]Event) *Log {
	n := 0
	heads := make(mergeHeap, 0, len(runs))
	for i, r := range runs {
		n += len(r)
		if len(r) > 0 {
			heads = append(heads, mergeHead{rest: r, run: i})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		heads.down(i)
	}
	out := make([]Event, 0, n)
	for len(heads) > 1 {
		top := &heads[0]
		out = append(out, top.rest[0])
		if top.rest = top.rest[1:]; len(top.rest) == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		heads.down(0)
	}
	if len(heads) == 1 {
		out = append(out, heads[0].rest...)
	}
	return &Log{events: out}
}

// mergeHead is a run's unmerged remainder; run is its index among the runs.
type mergeHead struct {
	rest []Event
	run  int
}

// mergeHeap is a binary min-heap of non-empty run remainders, ordered by
// their first events and, on a tie, by run index.
type mergeHeap []mergeHead

func (h mergeHeap) less(i, j int) bool {
	c := compareEventPtrs(&h[i].rest[0], &h[j].rest[0])
	return c < 0 || c == 0 && h[i].run < h[j].run
}

// down restores the heap order below i.
func (h mergeHeap) down(i int) {
	for {
		least, l := i, 2*i+1
		if l >= len(h) {
			return
		}
		if h.less(l, least) {
			least = l
		}
		if r := l + 1; r < len(h) && h.less(r, least) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Log is an in-memory collection of events. The zero value is an empty log
// ready to use. Log is not safe for concurrent mutation.
type Log struct {
	events []Event
}

// FromEvents builds a log from a copy of the given events.
func FromEvents(events []Event) *Log {
	cp := make([]Event, len(events))
	copy(cp, events)
	return &Log{events: cp}
}

// Len returns the number of events.
func (l *Log) Len() int { return len(l.events) }

// Events returns a copy of the log's events in their current order.
func (l *Log) Events() []Event {
	cp := make([]Event, len(l.events))
	copy(cp, l.events)
	return cp
}

// Sort orders the log by Before, in place, deterministically.
func (l *Log) Sort() { SortEvents(l.events) }

// FilterClass returns a new log containing only events of the given classes.
func (l *Log) FilterClass(classes ...ecc.Class) *Log {
	want := make(map[ecc.Class]bool, len(classes))
	for _, c := range classes {
		want[c] = true
	}
	out := &Log{}
	for _, e := range l.events {
		if want[e.Class] {
			out.events = append(out.events, e)
		}
	}
	return out
}

// GroupByBank partitions the log's events by bank key under p, preserving
// their current relative order within each bank.
func (l *Log) GroupByBank(p *hbm.Profile) map[uint64][]Event {
	groups := make(map[uint64][]Event)
	for _, e := range l.events {
		k := p.Layout.BankKey(e.Addr)
		groups[k] = append(groups[k], e)
	}
	return groups
}

// Entities returns the number of distinct entities at the given micro-level
// of p's hierarchy that logged an event of one of classes, or any event when
// none is given: the counting primitive behind the paper's Table II.
func (l *Log) Entities(p *hbm.Profile, level hbm.Level, classes ...ecc.Class) int {
	seen := make(map[uint64]struct{})
	for _, e := range l.events {
		if len(classes) == 0 || slices.Contains(classes, e.Class) {
			seen[p.Layout.EntityKey(e.Addr, level)] = struct{}{}
		}
	}
	return len(seen)
}

// DedupeEvents removes consecutive duplicate events (same instant, address,
// class and bits) from events in place and returns the shortened slice; on
// events in SortEvents order it removes every duplicate. Times are compared
// with Time.Equal, not ==, so events from different sources (parsed vs
// generated) deduplicate correctly.
func DedupeEvents(events []Event) []Event {
	return slices.CompactFunc(events, func(a, b Event) bool {
		return a.Time.Equal(b.Time) && a.Addr == b.Addr && a.Class == b.Class && a.Bits == b.Bits
	})
}

// Span returns the time range [first, last] covered by a sorted log. ok is
// false for an empty log.
func (l *Log) Span() (first, last time.Time, ok bool) {
	if len(l.events) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return l.events[0].Time, l.events[len(l.events)-1].Time, true
}
