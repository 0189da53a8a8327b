// Package ecc implements the error-correction substrate that turns raw bit
// faults into the CE / UEO / UER taxonomy the Cordial paper works with.
//
// The code is a (72,64) Hsiao single-error-correcting, double-error-detecting
// (SEC-DED) code: 64 data bits protected by 8 check bits. Hsiao codes assign
// every data bit a distinct odd-weight syndrome column, which makes
// double-bit errors (even-weight syndromes) separable from single-bit errors
// (odd-weight syndromes) with minimal decode logic — the same construction
// used by real memory controllers.
//
// Classification semantics follow §II-B of the paper: errors within the
// correction capability are CEs; uncorrectable errors discovered by patrol
// scrubbing (no consumer touched the data) are UEOs (action optional); and
// uncorrectable errors hit by a demand access are UERs (action required).
package ecc

import "fmt"

// Code geometry.
const (
	// DataBits is the number of protected data bits per codeword.
	DataBits = 64
	// CheckBits is the number of parity-check bits per codeword.
	CheckBits = 8
	// TotalBits is the codeword length.
	TotalBits = DataBits + CheckBits
)

// columns[i] is the 8-bit syndrome column for data bit i. Columns are the
// lexicographically first 64 odd-weight-≥3 byte values, which guarantees
// distinctness from each other and from the weight-1 check-bit columns.
var columns [DataBits]uint8

func init() {
	idx := 0
	for v := 0; v < 256 && idx < DataBits; v++ {
		w := popcount8(uint8(v))
		if w >= 3 && w%2 == 1 {
			columns[idx] = uint8(v)
			idx++
		}
	}
	if idx != DataBits {
		panic("ecc: failed to construct Hsiao columns")
	}
}

func popcount8(v uint8) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// Codeword is a 72-bit SEC-DED codeword: 64 data bits plus 8 check bits.
type Codeword struct {
	Data  uint64
	Check uint8
}

// Encode computes the check bits for data and returns the codeword.
func Encode(data uint64) Codeword {
	var check uint8
	d := data
	for i := 0; d != 0; i++ {
		if d&1 != 0 {
			check ^= columns[i]
		}
		d >>= 1
	}
	return Codeword{Data: data, Check: check}
}

// Outcome is the result of decoding a possibly corrupted codeword.
type Outcome int

// Decode outcomes.
const (
	// OutcomeClean means the syndrome was zero: no detectable error.
	OutcomeClean Outcome = iota + 1
	// OutcomeCorrected means a single-bit error was detected and repaired.
	OutcomeCorrected
	// OutcomeUncorrectable means an error beyond the correction capability
	// was detected (double-bit, or a multi-bit error aliasing to an odd
	// syndrome that matches no column).
	OutcomeUncorrectable
)

// String returns a short human-readable name for the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeCorrected:
		return "corrected"
	case OutcomeUncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// DecodeResult carries the outcome of a decode along with the repaired data
// and, for corrected errors, the position of the flipped bit (0..71, data
// bits first, then check bits).
type DecodeResult struct {
	Outcome Outcome
	Data    uint64
	// FlippedBit is the corrected bit position for OutcomeCorrected,
	// -1 otherwise.
	FlippedBit int
}

// Decode checks cw's syndrome and corrects a single-bit error if present.
func Decode(cw Codeword) DecodeResult {
	syndrome := Encode(cw.Data).Check ^ cw.Check
	if syndrome == 0 {
		return DecodeResult{Outcome: OutcomeClean, Data: cw.Data, FlippedBit: -1}
	}
	w := popcount8(syndrome)
	if w%2 == 0 {
		// Even-weight non-zero syndrome: double-bit error detected.
		return DecodeResult{Outcome: OutcomeUncorrectable, Data: cw.Data, FlippedBit: -1}
	}
	if w == 1 {
		// A check bit itself flipped; data is intact.
		for i := 0; i < CheckBits; i++ {
			if syndrome == 1<<i {
				return DecodeResult{Outcome: OutcomeCorrected, Data: cw.Data, FlippedBit: DataBits + i}
			}
		}
	}
	for i := 0; i < DataBits; i++ {
		if columns[i] == syndrome {
			return DecodeResult{Outcome: OutcomeCorrected, Data: cw.Data ^ 1<<i, FlippedBit: i}
		}
	}
	// Odd-weight syndrome matching no column: ≥3-bit error detected.
	return DecodeResult{Outcome: OutcomeUncorrectable, Data: cw.Data, FlippedBit: -1}
}

// FlipBits returns a copy of cw with the given bit positions inverted.
// Positions 0..63 address data bits; 64..71 address check bits. It panics on
// an out-of-range position.
func FlipBits(cw Codeword, positions ...int) Codeword {
	for _, p := range positions {
		switch {
		case p >= 0 && p < DataBits:
			cw.Data ^= 1 << p
		case p >= DataBits && p < TotalBits:
			cw.Check ^= 1 << (p - DataBits)
		default:
			panic(fmt.Sprintf("ecc: FlipBits position %d out of [0,%d)", p, TotalBits))
		}
	}
	return cw
}

// AccessKind distinguishes how a faulty location was touched, which decides
// whether an uncorrectable error is action-optional or action-required.
type AccessKind int

// Access kinds.
const (
	// AccessPatrolScrub is a background patrol-scrub read: no consumer is
	// waiting on the data.
	AccessPatrolScrub AccessKind = iota + 1
	// AccessDemand is a demand read issued by a running workload.
	AccessDemand
)

// String returns a short name for the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccessPatrolScrub:
		return "patrol-scrub"
	case AccessDemand:
		return "demand"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// Class is the paper's error taxonomy.
type Class uint8

// Error classes, per §II-B.
const (
	// ClassNone means the access observed no error.
	ClassNone Class = iota
	// ClassCE is a correctable error: within ECC's correction capability.
	ClassCE
	// ClassUEO is an uncorrectable error found by patrol scrubbing —
	// action optional, since no consumer received corrupt data.
	ClassUEO
	// ClassUER is an uncorrectable error hit by a demand access — action
	// required.
	ClassUER
)

// String returns the paper's abbreviation for the class.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassCE:
		return "CE"
	case ClassUEO:
		return "UEO"
	case ClassUER:
		return "UER"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass converts the abbreviations produced by Class.String back to a
// Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "none":
		return ClassNone, nil
	case "CE":
		return ClassCE, nil
	case "UEO":
		return ClassUEO, nil
	case "UER":
		return ClassUER, nil
	default:
		return ClassNone, fmt.Errorf("ecc: unknown error class %q", s)
	}
}

// Classify maps a decode outcome and the access that triggered it to the
// paper's error taxonomy.
func Classify(o Outcome, access AccessKind) Class {
	switch o {
	case OutcomeClean:
		return ClassNone
	case OutcomeCorrected:
		return ClassCE
	case OutcomeUncorrectable:
		if access == AccessPatrolScrub {
			return ClassUEO
		}
		return ClassUER
	default:
		panic(fmt.Sprintf("ecc: Classify called with invalid outcome %d", int(o)))
	}
}

// ReadFaulty encodes data, applies the given bit flips, decodes, and
// classifies the result for the given access kind. It is the one-call path
// the fault simulator uses to turn a physical fault into a logged error
// class. The returned DecodeResult carries the post-correction data.
func ReadFaulty(data uint64, flips []int, access AccessKind) (Class, DecodeResult) {
	cw := FlipBits(Encode(data), flips...)
	res := Decode(cw)
	return Classify(res.Outcome, access), res
}
