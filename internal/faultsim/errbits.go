package faultsim

import (
	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// Error-bit synthesis.
//
// "Exploring Error Bits for Memory Failure Prediction" observes that the
// intra-word pattern of corrupted bits separates failure modes: hardware
// faults behind aggregation patterns corrupt a stable DQ pin (the failing
// wire is physical), while scattered transient upsets flip varying,
// often multiple, pins. The simulator reproduces that signal: each bank
// has a "home" DQ pin for aggregation faults, and scattered or benign
// events draw their pins from the cell address.
//
// Bits are derived from a hash of (bank, row, column, class), not from
// the generator's RNG, for two reasons: repeated errors at the same cell
// must show the same physical pattern, and adding the field must not
// perturb the seeded draw stream that calibrated the rest of the
// simulator's marginals.

// bitKind selects the error-bit behaviour of an event source.
type bitKind int

const (
	bitsAggregation bitKind = iota // stable per-bank pin fault
	bitsScattered                  // varying multi-pin upsets
	bitsBenign                     // single transient pin flips
)

// bitKindOf maps a generator pattern to its error-bit behaviour.
func bitKindOf(p Pattern) bitKind {
	if ClassOf(p).IsAggregation() {
		return bitsAggregation
	}
	return bitsScattered
}

// mix64 is the SplitMix64 finaliser: a cheap, well-distributed 64-bit
// mixer, enough to decorrelate pin draws from address arithmetic.
func mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// errBitsFor derives the error-bit pattern of one event from its bank's key.
func (g *Generator) errBitsFor(bank hbm.BankAddress, row, col int, class ecc.Class, kind bitKind) mcelog.ErrBits {
	key := g.cfg.Profile.Layout.PackBank(bank)
	h := mix64(key ^ mix64(uint64(row)) ^ mix64(uint64(col)<<20) ^ uint64(class)<<56)
	switch kind {
	case bitsAggregation:
		// The failing wire is a property of the bank's fault, so every
		// event in the bank shares its home pin.
		home := uint8(1) << (mix64(key) & 7)
		dq := home
		if class == ecc.ClassUER && h&3 == 0 {
			// An uncorrectable word occasionally takes a second pin down.
			dq |= uint8(1) << ((h >> 3) & 7)
		}
		burst := uint8(1) << ((h >> 8) & 7)
		if class != ecc.ClassCE {
			burst |= uint8(1) << ((h >> 16) & 7)
		}
		return mcelog.MakeErrBits(dq, burst)
	case bitsScattered:
		// Scattered upsets corrupt one to three pins that vary per cell.
		dq := uint8(1)<<((h>>4)&7) | uint8(1)<<((h>>12)&7)
		if h&1 == 0 {
			dq |= uint8(1) << ((h >> 20) & 7)
		}
		burst := uint8(1)<<((h>>24)&7) | uint8(1)<<((h>>32)&7)
		return mcelog.MakeErrBits(dq, burst)
	default:
		// Benign transients: one pin, one burst position.
		return mcelog.MakeErrBits(1<<((h>>4)&7), 1<<((h>>24)&7))
	}
}
