// Package rng provides deterministic, splittable random number generation
// for simulations.
//
// Every stochastic component of the simulator draws from its own named
// substream so that adding randomness to one component never perturbs the
// draws seen by another. Substreams are derived by hashing the parent
// seed with the stream name, so a (seed, name-path) pair fully determines
// the sequence: identical configurations replay identical experiments.
package rng

import (
	"math/bits"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random source (PCG-DXSM) that can be
// split into independent named substreams.
//
// It holds the generator state itself, the two words rand.PCG holds,
// and steps it exactly as rand.PCG does, so Uint64 and Float64 inline
// into their callers. Uint64, Float64 and IntN (and Range, Bernoulli,
// IntNExcept and the batch IntNs through them) use math/rand/v2's own
// reductions, so every draw equals the rand.Rand draw it replaces. The
// RNG is also the Source of its own rand.Rand, which serves
// NormFloat64, ExpFloat64, Perm and Shuffle: interleaved draws share
// one stream.
type RNG struct {
	hi, lo uint64
	rand   *rand.Rand
	seed   uint64
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical sequences.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.rand = rand.New(r)
	r.Reseed(seed)
	return r
}

// Seed reports the seed this generator was created from.
func (r *RNG) Seed() uint64 { return r.seed }

// Reseed re-initializes the generator in place to the exact state New
// would construct from seed, without allocating. Pooled run states reuse
// their stream generators across runs through it: Reseed(s) followed by
// any draw sequence is bit-identical to the same draws on New(s).
func (r *RNG) Reseed(seed uint64) {
	r.hi, r.lo = seed, mix(seed, 0x9e3779b97f4a7c15) // rand.NewPCG(seed1, seed2)
	r.seed = seed
}

// Stream derives an independent substream identified by name. Streams with
// distinct names are statistically independent; the same (seed, name)
// always yields the same stream. Deriving a stream does not consume state
// from the parent.
func (r *RNG) Stream(name string) *RNG {
	return New(DeriveString(r.seed, name))
}

// StreamInto is Stream without the allocation: it reseeds dst in place to
// the substream Stream(name) would return, or returns a fresh generator
// when dst is nil. Pooled run states hold their named streams and rebind
// them per run through it.
func (r *RNG) StreamInto(dst *RNG, name string) *RNG {
	if dst == nil {
		return r.Stream(name)
	}
	dst.Reseed(DeriveString(r.seed, name))
	return dst
}

// Derive deterministically folds a sequence of words (task coordinates,
// trial indices, attempt counters) into seed with the SplitMix64
// finalizer. It is pure: the same inputs always yield the same seed, so
// per-task generators built from a shared base seed reproduce bit-for-bit
// regardless of execution order or worker count.
func Derive(seed uint64, words ...uint64) uint64 {
	h := seed
	for _, w := range words {
		h = mix(h, w)
	}
	return mix(h, 0xa0761d6478bd642f)
}

// DeriveString folds a string label into seed — the derivation Stream is
// built on, returning the derived seed value rather than a generator.
// The trailing offset makes DeriveString(s, "") differ from s itself.
func DeriveString(seed uint64, name string) uint64 {
	h := seed
	for i := 0; i < len(name); i++ {
		h = mix(h, uint64(name[i]))
	}
	return mix(h, 0xd1342543de82ef95)
}

// mix is a SplitMix64-style finalizer combining two words.
func mix(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PCG-DXSM constants, as math/rand/v2's PCG defines them: the 128-bit
// LCG multiplier and increment, and the output multiplier.
const (
	mulHi    = 2549297995355413924
	mulLo    = 4865540595714422341
	incHi    = 6364136223846793005
	incLo    = 1442695040888963407
	cheapMul = 0xda942042e4dd58b5
)

// step advances the 128-bit LCG state (hi, lo) by one draw, as
// rand.PCG's next does.
func step(hi, lo uint64) (uint64, uint64) {
	h, l := bits.Mul64(lo, mulLo)
	h += hi*mulLo + lo*mulHi
	l, c := bits.Add64(l, incLo, 0)
	h, _ = bits.Add64(h, incHi, c)
	return h, l
}

// output is rand.PCG's DXSM output function of a stepped state.
func output(hi, lo uint64) uint64 {
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Uint64 returns a uniform 64-bit value: rand.PCG's Uint64 on the same
// state. It spells out step and output rather than calling them, which
// keeps it, and Float64 over it, within the inliner's budget.
func (r *RNG) Uint64() uint64 {
	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	r.hi, r.lo = hi, lo
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Float64 returns a uniform value in [0, 1): rand.Rand.Float64's low 53
// bits of one draw over 2^53.
func (r *RNG) Float64() float64 { return float64(r.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n is rand.Rand's reduction of one source draw to [0, n): a mask
// when n is a power of two, else Lemire's multiply with the same
// rejection loop, drawing again only while the low word falls below
// 2^64 mod n. (rand.Rand's 32-bit-platform path yields the same values.)
func (r *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
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

// IntNs fills dst with consecutive IntN draws from r: dst[i] is
// IntN(n[i]) when n is as long as dst, and IntN(n[0]) for every i when n
// has one element. A bound of 0 draws nothing and sets dst[i] to 0; a
// negative bound panics, as IntN does. The values and the stream
// position afterwards equal those of the IntN calls it replaces, but the
// state stays in registers across the batch instead of going through
// memory on every draw. Tick loops draw their clock owners and partner
// picks through it.
func IntNs[T int32 | int](r *RNG, dst, n []T) {
	one := len(n) == 1
	if !one && len(n) != len(dst) {
		panic("rng: IntNs needs one bound or one per element")
	}
	hi, lo := r.hi, r.lo
	for i := range dst {
		b := n[0]
		if !one {
			b = n[i]
		}
		if b <= 0 {
			if b < 0 {
				r.hi, r.lo = hi, lo
				panic("invalid argument to IntN")
			}
			dst[i] = 0
			continue
		}
		u := uint64(b)
		hi, lo = step(hi, lo)
		if u&(u-1) == 0 {
			dst[i] = T(output(hi, lo) & (u - 1))
			continue
		}
		v, low := bits.Mul64(output(hi, lo), u)
		if low < u {
			thresh := -u % u
			for low < thresh {
				hi, lo = step(hi, lo)
				v, low = bits.Mul64(output(hi, lo), u)
			}
		}
		dst[i] = T(v)
	}
	r.hi, r.lo = hi, lo
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *RNG) ExpFloat64() float64 { return r.rand.ExpFloat64() }

// NormFloat64 returns a standard normal value.
func (r *RNG) NormFloat64() float64 { return r.rand.NormFloat64() }

// Range returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *RNG) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli reports true with probability p. Values of p outside [0, 1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// IntNExcept returns a uniform int in [0, n) excluding skip.
// It panics if n < 2 or skip is outside [0, n).
func (r *RNG) IntNExcept(n, skip int) int {
	if n < 2 {
		panic("rng: IntNExcept needs n >= 2")
	}
	if skip < 0 || skip >= n {
		panic("rng: IntNExcept skip out of range")
	}
	v := r.IntN(n - 1)
	if v >= skip {
		v++
	}
	return v
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.rand.Perm(n) }

// PermInto writes a random permutation of [0, n) into dst (n = len(dst))
// and returns it. It performs the identical swap sequence Perm performs —
// a Fisher–Yates Shuffle over the identity — so the draws consumed and
// the permutation produced are bit-identical to Perm(len(dst)), without
// the allocation. Hot loops give the buffer to their run state and call
// this instead of Perm.
func (r *RNG) PermInto(dst []int) []int {
	for i := range dst {
		dst[i] = i
	}
	r.rand.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	return dst
}

// Shuffle randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.rand.Shuffle(n, swap) }
