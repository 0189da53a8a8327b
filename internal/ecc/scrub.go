package ecc

import (
	"fmt"
	"sort"
	"time"
)

// FaultKind describes the persistence of a physical fault.
type FaultKind int

// Fault kinds.
const (
	// FaultTransient corrupts one read and then disappears (e.g. a
	// particle strike); scrubbing repairs the stored word.
	FaultTransient FaultKind = iota + 1
	// FaultStuck permanently forces the affected bits (e.g. a failed SWD
	// or TSV); every read sees the corruption until the region is spared.
	FaultStuck
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultStuck:
		return "stuck"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is a physical defect on one codeword: the affected bit positions
// (0..71) and its persistence.
type Fault struct {
	// Bits are the codeword bit positions the fault flips.
	Bits []int
	// Kind is the fault's persistence.
	Kind FaultKind
	// Onset is when the fault starts affecting reads.
	Onset time.Time
}

// Validate checks the fault.
func (f Fault) Validate() error {
	if len(f.Bits) == 0 {
		return fmt.Errorf("ecc: fault flips no bits")
	}
	for _, b := range f.Bits {
		if b < 0 || b >= TotalBits {
			return fmt.Errorf("ecc: fault bit %d out of [0,%d)", b, TotalBits)
		}
	}
	if f.Kind != FaultTransient && f.Kind != FaultStuck {
		return fmt.Errorf("ecc: invalid fault kind %d", int(f.Kind))
	}
	if f.Onset.IsZero() {
		return fmt.Errorf("ecc: fault has zero onset time")
	}
	return nil
}

// FaultMap tracks the physical faults of one bank's codewords, keyed by an
// opaque word index (caller-defined, e.g. row*colsPerRow+col). The zero
// value is an empty map ready to use.
type FaultMap struct {
	faults map[uint64][]Fault
	// scrubbed[word] is the last time a scrub repaired the stored word;
	// transient corruption before that time is gone.
	scrubbed map[uint64]time.Time
}

// AddFault registers a fault on a word.
func (m *FaultMap) AddFault(word uint64, f Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if m.faults == nil {
		m.faults = make(map[uint64][]Fault)
	}
	m.faults[word] = append(m.faults[word], f)
	return nil
}

// FaultyWords returns the word indices with registered faults, sorted.
func (m *FaultMap) FaultyWords() []uint64 {
	words := make([]uint64, 0, len(m.faults))
	for w := range m.faults {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	return words
}

// activeBits returns the union of fault bits visible on a read of word at
// time t: all stuck faults past onset, plus transient faults past onset that
// no scrub has repaired yet.
func (m *FaultMap) activeBits(word uint64, t time.Time) []int {
	set := make(map[int]bool)
	lastScrub, hasScrub := time.Time{}, false
	if ts, ok := m.scrubbed[word]; ok {
		lastScrub, hasScrub = ts, true
	}
	for _, f := range m.faults[word] {
		if f.Onset.After(t) {
			continue
		}
		if f.Kind == FaultTransient && hasScrub && !f.Onset.After(lastScrub) {
			continue // repaired by a scrub after onset
		}
		for _, b := range f.Bits {
			set[b] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	bits := make([]int, 0, len(set))
	for b := range set {
		bits = append(bits, b)
	}
	sort.Ints(bits)
	return bits
}

// Read models an access to word at time t: the stored codeword (with the
// currently active fault bits flipped) goes through SEC-DED decode and the
// outcome is classified for the access kind. A successful correction during
// a patrol scrub also rewrites the word, clearing transient faults
// (scrub-and-correct); demand reads correct in flight but do not rewrite.
func (m *FaultMap) Read(word uint64, t time.Time, access AccessKind) Class {
	class, _ := ReadFaulty(0, m.activeBits(word, t), access)
	if access == AccessPatrolScrub && class == ClassCE {
		if m.scrubbed == nil {
			m.scrubbed = make(map[uint64]time.Time)
		}
		if prev, ok := m.scrubbed[word]; !ok || t.After(prev) {
			m.scrubbed[word] = t
		}
	}
	return class
}
