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

// RNG is a deterministic pseudo-random source (PCG-backed) that can be
// split into independent named substreams.
//
// Uint64, Float64 and IntN (and Range, Bernoulli and IntNExcept through
// them) read the PCG source directly with math/rand/v2's own reductions,
// so every draw equals the rand.Rand draw it replaces without an
// interface call per draw. NormFloat64, ExpFloat64, Perm and Shuffle stay
// on rand.Rand over the same source, so interleaved draws share one
// stream.
type RNG struct {
	rand *rand.Rand
	src  *rand.PCG
	seed uint64
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical sequences.
func New(seed uint64) *RNG {
	src := rand.NewPCG(seed, mix(seed, 0x9e3779b97f4a7c15))
	return &RNG{
		rand: rand.New(src),
		src:  src,
		seed: seed,
	}
}

// Seed reports the seed this generator was created from.
func (r *RNG) Seed() uint64 { return r.seed }

// Reseed re-initializes the generator in place to the exact state New
// would construct from seed, without allocating. Pooled run states reuse
// their stream generators across runs through it: Reseed(s) followed by
// any draw sequence is bit-identical to the same draws on New(s).
func (r *RNG) Reseed(seed uint64) {
	r.src.Seed(seed, mix(seed, 0x9e3779b97f4a7c15))
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

// Float64 returns a uniform value in [0, 1): rand.Rand.Float64's low 53
// bits of one draw over 2^53.
func (r *RNG) Float64() float64 { return float64(r.src.Uint64()<<11>>11) / (1 << 53) }

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
		return r.src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.src.Uint64(), n)
		}
	}
	return hi
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

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
