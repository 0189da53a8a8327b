// Package xrand provides a deterministic pseudo-random number generator and
// the distribution helpers the Cordial simulators need.
//
// The generator is a PCG-XSH-RR 64/32 combined into a 64-bit output stream
// (two 32-bit draws per 64-bit value). Unlike math/rand, its output is stable
// across Go releases, so every experiment in this repository is exactly
// reproducible from a single seed. The zero value is not usable; construct
// generators with New.
package xrand

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine its own RNG (see Split).
type RNG struct {
	state uint64
	inc   uint64
	// Cached second normal variate from the Box-Muller transform.
	hasGauss bool
	gauss    float64
}

const pcgMultiplier = 6364136223846793005

// New returns an RNG seeded with seed. Two RNGs built from the same seed
// produce identical streams.
func New(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

// seeded is New's generator, by value.
func seeded(seed uint64) RNG {
	r := RNG{inc: (seed << 1) | 1, state: splitmix64(seed)}
	r.next32()
	return r
}

// Split derives a new, statistically independent RNG from r. The derived
// stream depends on r's current position, so calling Split at different
// points yields different children. Use it to hand each simulated component
// its own generator without sharing state across goroutines. The child is a
// value, so a slice of them — one per forest member — is one allocation.
func (r *RNG) Split() RNG {
	return seeded(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next32 advances the PCG state and returns 32 output bits.
func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return bits.RotateLeft32(xorshifted, -int(rot))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.next32())<<32 | uint64(r.next32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate). It
// panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp called with rate <= 0")
	}
	return r.ExpFloat64() / rate
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. It panics
// if the weights sum to zero or the slice is empty.
func (r *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: WeightedChoice called with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: WeightedChoice called with non-positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("xrand: unreachable")
}

// SampleInts returns k distinct integers drawn uniformly from [0, n) in
// random order. It panics if k > n or k < 0.
func (r *RNG) SampleInts(n, k int) []int {
	return r.SampleIntsInto(nil, n, k)
}

// linearDedupeMax is the largest k SampleIntsInto dedupes by scanning what it
// has drawn so far; beyond it the scan would go quadratic and a set is built.
const linearDedupeMax = 32

// SampleIntsInto is SampleInts writing into dst's backing array (grown when
// too small: k values for a sparse draw, n for a dense one) and returning the
// k-long result. The generator is consumed exactly as SampleInts consumes it,
// so the two are interchangeable mid-stream.
func (r *RNG) SampleIntsInto(dst []int, n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleInts called with k out of range")
	}
	// For small k relative to n, redraw on collision; otherwise shuffle.
	if k*4 < n {
		dst = slices.Grow(dst[:0], k)
		var seen map[int]struct{}
		if k > linearDedupeMax {
			seen = make(map[int]struct{}, k)
		}
		for len(dst) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup || (seen == nil && slices.Contains(dst, v)) {
				continue
			}
			if seen != nil {
				seen[v] = struct{}{}
			}
			dst = append(dst, v)
		}
		return dst
	}
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = i
	}
	r.ShuffleInts(dst)
	return dst[:k]
}
