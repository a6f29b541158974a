// Package sim provides the asynchronous simulation substrate shared by
// every gossip algorithm in this repository: the paper's clock model,
// transmission accounting by traffic category, and an incremental tracker
// for the ℓ₂ distance from consensus.
//
// Clock model (§2 of the paper): each node owns an independent unit-rate
// Poisson clock. This is equivalent to a single global Poisson clock of
// rate n whose ticks are assigned to nodes uniformly at random, which is
// what Clock simulates. Communication and forwarding delays are assumed
// negligible relative to the mean slot length 1/n, so algorithm cost is
// measured in transmissions, not time.
package sim

import (
	"fmt"
	"math"

	"geogossip/internal/rng"
)

// Clock assigns global clock ticks to nodes uniformly at random,
// equivalent to per-node unit-rate Poisson clocks.
type Clock struct {
	n     int
	r     *rng.RNG
	ticks uint64
}

// NewClock builds a clock over n nodes drawing from r. It panics if
// n <= 0.
func NewClock(n int, r *rng.RNG) *Clock {
	c := &Clock{}
	c.Reset(n, r)
	return c
}

// Reset re-initializes the clock in place for a new run over n nodes
// drawing from r, so pooled run states reuse one Clock across runs. It
// panics if n <= 0, like NewClock.
func (c *Clock) Reset(n int, r *rng.RNG) {
	if n <= 0 {
		panic("sim: NewClock with n <= 0")
	}
	c.n, c.r, c.ticks = n, r, 0
}

// Draw returns the node whose clock fires at a tick without counting
// the tick: Harness.Tick counts it right away, while the tick pipeline
// (DESIGN.md §7) draws a batch of owners ahead and counts each one
// through Harness.Advance as it applies it.
func (c *Clock) Draw() int32 { return int32(c.r.IntN(c.n)) }

// Ticks returns the number of ticks issued so far.
func (c *Clock) Ticks() uint64 { return c.ticks }

// Bump advances the tick counter by k without drawing. Harness.Advance
// counts a tick drawn ahead through it.
func (c *Clock) Bump(k uint64) { c.ticks += k }

// Category classifies transmissions for the cost breakdown of E13.
type Category int

const (
	// CatNear is a single-hop exchange with a graph neighbour (2 per
	// pairwise exchange: one message each way).
	CatNear Category = iota + 1
	// CatFar is a hop of a long-range greedy route carrying values.
	CatFar
	// CatControl is a hop of an activation/deactivation control route.
	CatControl
	// CatFlood is one broadcast of a region-restricted control flood.
	CatFlood

	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatNear:
		return "near"
	case CatFar:
		return "far"
	case CatControl:
		return "control"
	case CatFlood:
		return "flood"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Counter accumulates transmission counts by category.
type Counter struct {
	counts [numCategories]uint64
}

// Add records n transmissions in the given category.
func (c *Counter) Add(cat Category, n int) {
	if n < 0 {
		panic("sim: negative transmission count")
	}
	c.counts[cat] += uint64(n)
}

// Get returns the count for one category.
func (c *Counter) Get(cat Category) uint64 { return c.counts[cat] }

// Total returns the sum over all categories.
func (c *Counter) Total() uint64 {
	var t uint64
	for _, v := range c.counts {
		t += v
	}
	return t
}

// Reset zeroes every category for a new run.
func (c *Counter) Reset() { c.counts = [numCategories]uint64{} }

// Breakdown returns the per-category counts keyed by category name.
func (c *Counter) Breakdown() map[string]uint64 {
	out := make(map[string]uint64, 4)
	for cat := CatNear; cat < numCategories; cat++ {
		out[cat.String()] = c.counts[cat]
	}
	return out
}

// ErrTracker maintains ‖x − x̄·1‖₂ / ‖x(0) − x̄·1‖₂ incrementally while an
// algorithm mutates individual entries of x. Because all gossip updates
// preserve the sum, the mean x̄ is fixed at construction.
//
// Incremental float accumulation drifts, so the tracker periodically
// recomputes the deviation exactly; Err is therefore accurate to well
// below the tolerances any experiment uses.
type ErrTracker struct {
	x       []float64
	mean    float64
	dev2    float64 // running Σ(x_i − mean)²
	norm0   float64 // initial ‖x − mean‖₂
	updates int
	// resyncEvery forces an exact recomputation after this many updates.
	resyncEvery int
}

// NewErrTracker wraps x (which the algorithm continues to mutate through
// Update). The caller must report every value change through Update.
func NewErrTracker(x []float64) *ErrTracker {
	t := &ErrTracker{}
	t.Reset(x)
	return t
}

// Reset re-initializes the tracker in place over a fresh x, so pooled run
// states reuse one ErrTracker across runs.
func (t *ErrTracker) Reset(x []float64) {
	*t = ErrTracker{x: x, resyncEvery: 1 << 16}
	n := float64(len(x))
	if n == 0 {
		return
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	t.mean = sum / n
	t.dev2 = t.exactDev2()
	t.norm0 = math.Sqrt(t.dev2)
}

func (t *ErrTracker) exactDev2() float64 {
	var d2 float64
	for _, v := range t.x {
		d := v - t.mean
		d2 += d * d
	}
	return d2
}

// Mean returns the (invariant) mean of the tracked vector.
func (t *ErrTracker) Mean() float64 { return t.mean }

// Norm0 returns the initial deviation norm ‖x(0) − x̄‖₂.
func (t *ErrTracker) Norm0() float64 { return t.norm0 }

// Update records that x[i] changed from old to its current value x[i].
// Call it after mutating the slice.
func (t *ErrTracker) Update(i int32, old float64) {
	dOld := old - t.mean
	dNew := t.x[i] - t.mean
	t.dev2 += dNew*dNew - dOld*dOld
	t.updates++
	if t.updates >= t.resyncEvery {
		t.updates = 0
		t.dev2 = t.exactDev2()
	}
}

// Set assigns x[i] = v and updates the tracker.
func (t *ErrTracker) Set(i int32, v float64) {
	old := t.x[i]
	t.x[i] = v
	t.Update(i, old)
}

// Dev2 returns the current squared deviation Σ(x_i − x̄)² (never negative;
// tiny negative float residue is clamped).
func (t *ErrTracker) Dev2() float64 {
	if t.dev2 < 0 {
		return 0
	}
	return t.dev2
}

// Err returns the relative error ‖x − x̄‖₂ / ‖x(0) − x̄‖₂. A vector that
// started at consensus reports 0.
func (t *ErrTracker) Err() float64 {
	if t.norm0 == 0 {
		return 0
	}
	return math.Sqrt(t.Dev2()) / t.norm0
}

// Resync forces an exact recomputation of the deviation.
func (t *ErrTracker) Resync() {
	t.dev2 = t.exactDev2()
	t.updates = 0
}

// CheckFinite returns an error naming the first NaN or ±Inf entry of x.
// Every engine calls it next to its length check, before any draw and
// before writing to x: a run over a non-finite value can never reach its
// target, so it would otherwise spin to its tick cap and report a NaN
// error with no failure.
func CheckFinite(x []float64) error {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: value %d is %v; initial values must be finite", i, v)
		}
	}
	return nil
}

// StopRule bundles the termination conditions shared by the algorithm
// runners.
type StopRule struct {
	// TargetErr stops when the relative error drops to this level or
	// below. Zero or negative means "never" (run to MaxTicks).
	TargetErr float64
	// MaxTicks bounds the global clock ticks. Zero selects a defensive
	// default of 50_000_000.
	MaxTicks uint64
}

// WithDefaults returns the rule with zero fields replaced by defaults.
func (s StopRule) WithDefaults() StopRule {
	if s.MaxTicks == 0 {
		s.MaxTicks = 50_000_000
	}
	return s
}

// Done reports whether the run should stop, given the current tick count
// and relative error.
func (s StopRule) Done(ticks uint64, err float64) bool {
	if s.TargetErr > 0 && err <= s.TargetErr {
		return true
	}
	return ticks >= s.MaxTicks
}

// Grow helpers for pooled run states: engines reuse per-node and
// per-square scratch slices across runs through them, so repeat runs
// allocate only when a binding grows.

// GrowBool returns a cleared bool slice of length n, reusing buf's
// storage when large enough.
func GrowBool(buf []bool, n int) []bool {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]bool, n)
}

// GrowInt32 returns an uninitialized int32 slice of length n, reusing
// buf's storage when large enough.
func GrowInt32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// GrowUint64 returns a zeroed uint64 slice of length n, reusing buf's
// storage when large enough.
func GrowUint64(buf []uint64, n int) []uint64 {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]uint64, n)
}

// GrowFloat returns an uninitialized float64 slice of length n, reusing
// buf's storage when large enough. Callers must overwrite every entry.
func GrowFloat(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
