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
// equivalent to per-node unit-rate Poisson clocks. Its stream feeds
// nothing but owners, so the tick pipeline draws a batch of owners
// before their ticks come (DESIGN.md §7) and discards what is left when
// its run stops.
type Clock struct {
	// bound holds n, the one IntNs bound of every owner draw.
	bound [1]int32
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
	c.bound[0], c.r, c.ticks = int32(n), r, 0
}

// Draw fills dst with the owners of the next len(dst) ticks without
// counting them, in one batch draw: the tick pipeline (DESIGN.md §7)
// draws its batch through it and counts each tick through
// Harness.Advance as it applies it. A run draws its owners either
// through Draw or through Next, never both.
func (c *Clock) Draw(dst []int32) { rng.IntNs(c.r, dst, c.bound[:]) }

// Next returns the owner of the next tick without counting it: one IntN
// draw, the draw Draw makes for each owner. It inlines around IntN's
// out-of-line reduction. On the async engine's ticks a draw per tick
// measured faster than drawing owners a batch ahead (DESIGN.md §7).
func (c *Clock) Next() int32 { return int32(c.r.IntN(int(c.bound[0]))) }

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
	// total is the sum over counts, kept by Add: the recursive engine
	// reads it as its clock on every exchange.
	total uint64
}

// Add records n transmissions in the given category.
func (c *Counter) Add(cat Category, n int) {
	if n < 0 {
		panic("sim: negative transmission count")
	}
	c.counts[cat] += uint64(n)
	c.total += uint64(n)
}

// Get returns the count for one category.
func (c *Counter) Get(cat Category) uint64 { return c.counts[cat] }

// Total returns the sum over all categories.
func (c *Counter) Total() uint64 { return c.total }

// Reset zeroes every category for a new run.
func (c *Counter) Reset() { *c = Counter{} }

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

// SetPair is Set(i, vi) followed by Set(j, vj), the update of a pairwise
// exchange: the same two additions in the same order, and the same exact
// recomputation wherever one of the two updates falls due for it. It
// does not inline, so the hottest exchange loops make the pair through
// PairDue and SetPairClear, and call SetPair only when PairDue holds.
func (t *ErrTracker) SetPair(i, j int32, vi, vj float64) {
	if t.PairDue() {
		t.Set(i, vi)
		t.Set(j, vj)
		return
	}
	t.SetPairClear(i, j, vi, vj)
}

// PairDue reports whether one of the next two updates falls due for the
// exact recomputation.
func (t *ErrTracker) PairDue() bool { return t.updates+2 >= t.resyncEvery }

// SetPairClear is SetPair when PairDue does not hold: it loads and
// stores the running deviation once, and inlines (DESIGN.md §7, "Fixed
// per-exchange cost"). It has no room left in the inliner's budget for
// the PairDue test and its out-of-line branch, so the caller makes the
// test: a pair that falls due goes through SetPair. The deviations are
// written out in place rather than named, which keeps it within that
// budget; the compiler computes each of them once.
func (t *ErrTracker) SetPairClear(i, j int32, vi, vj float64) {
	t.updates += 2
	x, m := t.x, t.mean
	oi := x[i]
	x[i] = vi
	oj := x[j] // vi when j == i, as the second Set reads it
	x[j] = vj
	t.dev2 = t.dev2 + ((vi-m)*(vi-m) - (oi-m)*(oi-m)) + ((vj-m)*(vj-m) - (oj-m)*(oj-m))
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
func (t *ErrTracker) Err() float64 { return relErr(t.Dev2(), t.norm0) }

// relErr is Err's formula for squared deviation dev2 and initial norm
// norm0.
func relErr(dev2, norm0 float64) float64 {
	if norm0 == 0 {
		return 0
	}
	return math.Sqrt(dev2) / norm0
}

// stopDev2 returns the threshold thr for which Dev2() <= thr holds
// exactly when StopRule.Done's error condition, target > 0 && Err() <=
// target, does, given the tracker's norm0: the largest dev2 whose relErr
// is at most target, -Inf when no value of Dev2 qualifies (target <= 0)
// and +Inf when every one does. Sqrt and division are correctly rounded,
// hence monotone, so relErr is nondecreasing in dev2 and the qualifying
// values form one interval from 0; the search runs over the bit patterns
// of the non-negative floats, which order as their values. A NaN Dev2
// compares false, as its NaN Err does. The one exception is norm0 = 0
// with target > 0, where Err is 0 whatever Dev2 is; no run reaches a NaN
// there: such a run stops before its first tick, and every deviation
// of its start squares to 0, far from the overflow a NaN needs.
func stopDev2(target, norm0 float64) float64 {
	ok := func(d float64) bool { return relErr(d, norm0) <= target }
	if !(target > 0) || !ok(0) {
		return math.Inf(-1)
	}
	inf := math.Inf(1)
	if ok(inf) {
		return inf
	}
	lo, hi := uint64(0), math.Float64bits(inf) // ok(lo) && !ok(hi)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if ok(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
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
// and relative error. Harness.Done decides the same rule on the squared
// deviation, without computing the error (see stopDev2).
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
