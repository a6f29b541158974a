package sim

import (
	"math"
	"slices"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

// TestHarnessPacketCarriesContext checks a packet built the way every
// engine builds one — channel.NewPacket over the harness's Points and
// clock — carries ids, hops, positions and the current tick.
func TestHarnessPacketCarriesContext(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.2), geo.Pt(0.3, 0.4), geo.Pt(0.9, 0.8)}
	x := []float64{1, 2, 3}
	h := NewHarness(x, HarnessConfig{Points: pts}, rng.New(1))
	h.Tick()
	h.Tick()
	p := channel.NewPacket(h.Points, 0, 2, 7, h.Clock.Ticks())
	if p.Src != 0 || p.Dst != 2 || p.Hops != 7 {
		t.Fatalf("packet ids/hops wrong: %+v", p)
	}
	if p.SrcPos != pts[0] || p.DstPos != pts[2] {
		t.Fatalf("packet positions wrong: %+v", p)
	}
	if p.Now != h.Clock.Ticks() || p.Now != 2 {
		t.Fatalf("packet time %d, want current tick count %d", p.Now, h.Clock.Ticks())
	}
	if mid := p.Mid(); mid != geo.Pt(0.5, 0.5) {
		t.Fatalf("midpoint %v, want (0.5, 0.5)", mid)
	}
}

func TestHarnessPacketWithoutPoints(t *testing.T) {
	x := []float64{1, 2}
	h := NewHarness(x, HarnessConfig{}, rng.New(1))
	p := channel.NewPacket(h.Points, 0, 1, 1, h.Clock.Ticks())
	if p.SrcPos != (geo.Point{}) || p.DstPos != (geo.Point{}) {
		t.Fatalf("positionless harness produced positions: %+v", p)
	}
}

// TestStopDev2MatchesStopRule pins Harness.Done's division-free error
// test to StopRule.Done's: for every target and initial norm, dev2 <=
// stopDev2(target, norm0) must hold exactly when the rule stops on the
// error relErr(dev2, norm0) — at the threshold, at its float neighbours,
// at the extremes and at random points, for target <= 0 (never), NaN,
// norm0 = 0 (error always 0) and norm0 = +Inf (error 0 or NaN).
func TestStopDev2MatchesStopRule(t *testing.T) {
	targets := []float64{1e-2, 1e-4, 0.37, 1, 3, 1e-300, math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), 0, -1e-2, math.Inf(-1), math.NaN()}
	norms := []float64{1, 0.37, 12345.678, 1e-200, 1e200, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 0, math.Inf(1)}
	r := rng.New(9)
	for _, target := range targets {
		for _, norm0 := range norms {
			thr := stopDev2(target, norm0)
			rule := StopRule{TargetErr: target, MaxTicks: 1}
			check := func(d float64) {
				if d < 0 || (math.IsNaN(d) && norm0 == 0) {
					// Dev2 is never negative (it may be -0), and never NaN
					// after a start at norm0 = 0 (see stopDev2).
					return
				}
				want := rule.Done(0, relErr(d, norm0))
				if got := d <= thr; got != want {
					t.Fatalf("target %g, norm0 %g, dev2 %g (threshold %g): dev2 <= threshold is %v, rule stops: %v",
						target, norm0, d, thr, got, want)
				}
			}
			for _, d := range []float64{thr, math.Nextafter(thr, math.Inf(1)), math.Nextafter(thr, math.Inf(-1)),
				0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()} {
				check(d)
			}
			est := target * norm0 * target * norm0
			for i := 0; i < 2000; i++ {
				check(math.Float64frombits(r.Uint64() >> 1)) // any non-negative bit pattern
				check(est * r.Range(0.5, 2))
			}
		}
	}
}

// TestHarnessDoneAndSampleMatchRules drives a harness the way the
// engines do — Tick, a pairwise average, Sample, until Done — and checks
// on every tick that Done agrees with StopRule.Done on the tracked error,
// and that Sample recorded exactly the ticks that are multiples of the
// sampling period, also across the MaxTicks raises with which tests run
// a harness a few ticks at a time.
func TestHarnessDoneAndSampleMatchRules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target float64
		every  uint64
	}{
		{"no target", 0, 7},
		{"target", 0.05, 0},
		{"target every tick", 0.05, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(3)
			x := make([]float64, 24)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			h := NewHarness(x, HarnessConfig{Stop: StopRule{TargetErr: tc.target, MaxTicks: 10}, RecordEvery: tc.every}, rng.New(4))
			every := tc.every
			if every == 0 {
				every = uint64(len(x))
			}
			pick := rng.New(5)
			for raise := 0; raise < 40; raise++ {
				for {
					if got, want := h.Done(), h.Stop.Done(h.Clock.Ticks(), h.Tracker.Err()); got != want {
						t.Fatalf("tick %d: Done() = %v, StopRule.Done = %v (err %g)", h.Clock.Ticks(), got, want, h.Tracker.Err())
					}
					if h.Done() {
						break
					}
					s := h.Tick()
					v := pick.IntNExcept(len(x), int(s))
					avg := (x[s] + x[v]) / 2
					h.Tracker.Set(s, avg)
					h.Tracker.Set(int32(v), avg)
					h.Sample()
				}
				h.Stop.MaxTicks = h.Clock.Ticks() + uint64(raise%9+1)
			}
			var want []uint64
			for tick := uint64(0); tick <= h.Clock.Ticks(); tick += every {
				want = append(want, tick)
			}
			var got []uint64
			for _, smp := range h.Curve.Samples {
				got = append(got, smp.Ticks)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("sampled ticks %v, want the multiples of %d: %v", got, every, want)
			}
			if tc.target > 0 && h.Tracker.Err() > tc.target {
				t.Fatalf("run ended at error %g above its target %g", h.Tracker.Err(), tc.target)
			}
		})
	}
}

// TestTickMatchesPerTickDraw pins Harness.Tick, which draws its owner
// through Clock.Next, to a per-tick Clock.Draw reference, the batch draw
// the tick pipeline makes, on a twin stream: the same owner at every
// tick while MaxTicks is raised a few ticks at a time, and again after a
// pooled Reset part-way through a run.
func TestTickMatchesPerTickDraw(t *testing.T) {
	x := make([]float64, 37)
	for i := range x {
		x[i] = float64(i)
	}
	h := &Harness{}
	ref := &Clock{}
	var one [1]int32
	check := func(clockSeed uint64, raises []uint64) {
		t.Helper()
		h.Reset(x, HarnessConfig{Stop: StopRule{MaxTicks: raises[0]}}, rng.New(clockSeed))
		ref.Reset(len(x), rng.New(clockSeed))
		for k, limit := range raises {
			h.Stop.MaxTicks = limit
			for h.Clock.Ticks() < limit {
				ref.Draw(one[:])
				if got := h.Tick(); got != one[0] {
					t.Fatalf("seed %d, limit %d (raise %d), tick %d: Tick = %d, per-tick draw %d",
						clockSeed, limit, k, h.Clock.Ticks(), got, one[0])
				}
			}
		}
	}
	// Raises of 1, 5, 31, 33, 1 and 129 ticks.
	check(11, []uint64{1, 6, 37, 70, 71, 200})
	// Reset 8 ticks into a 1000-tick run: the next run on the pooled
	// harness draws from its own stream alone.
	h.Reset(x, HarnessConfig{Stop: StopRule{MaxTicks: 1000}}, rng.New(13))
	for range 8 {
		h.Tick()
	}
	check(14, []uint64{3, 90})
}

// TestSetPairMatchesTwoSets pins ErrTracker.SetPair to Set(i, vi)
// followed by Set(j, vj) bit for bit — values, running deviation and
// update count — for random pairs, for i == j, and with the exact
// recomputation falling due on the first or the second of the two
// updates.
func TestSetPairMatchesTwoSets(t *testing.T) {
	r := rng.New(21)
	n := 16
	xa, xb := make([]float64, n), make([]float64, n)
	for i := range xa {
		xa[i] = r.NormFloat64() * 1e3
	}
	copy(xb, xa)
	a, b := NewErrTracker(xa), NewErrTracker(xb)
	a.resyncEvery, b.resyncEvery = 7, 7
	same := func(step int) {
		t.Helper()
		if math.Float64bits(a.dev2) != math.Float64bits(b.dev2) || a.updates != b.updates || !slices.Equal(xa, xb) {
			t.Fatalf("step %d: SetPair dev2 %v (updates %d), two Sets %v (updates %d)", step, a.dev2, a.updates, b.dev2, b.updates)
		}
	}
	resyncs := [2]int{}
	for step := range 500 {
		i, j := int32(r.IntN(n)), int32(r.IntN(n))
		if step%11 == 0 {
			j = i
		}
		vi, vj := r.NormFloat64()*1e3, r.NormFloat64()
		if before := b.updates; before+2 >= b.resyncEvery {
			resyncs[before+2-b.resyncEvery]++ // 0: on the second update, 1: on the first
		}
		a.SetPair(i, j, vi, vj)
		b.Set(i, vi)
		b.Set(j, vj)
		same(step)
	}
	if resyncs[0] == 0 || resyncs[1] == 0 {
		t.Fatalf("recomputations on the second / first update: %v, want both", resyncs)
	}
}

// TestPairUpdateAtRecomputation pins the pair update the exchange loops
// make, SetPairClear or SetPair when PairDue holds, to Set(i, vi)
// followed by Set(j, vj) bit for bit: x, Dev2, Err and the update count.
// It starts the pair at every count from resyncEvery−4 to resyncEvery−1,
// reached after an even and after an odd number of single Set calls,
// with i ≠ j and with i == j, so the exact recomputation falls due on
// neither update, on the second and on the first.
func TestPairUpdateAtRecomputation(t *testing.T) {
	const n = 9
	r := rng.New(31)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = r.NormFloat64() * 1e3
	}
	every := NewErrTracker(x0).resyncEvery
	for _, singles := range []int{2, 3} {
		for start := every - 4; start < every; start++ {
			for _, same := range []bool{false, true} {
				xa, xb := slices.Clone(x0), slices.Clone(x0)
				a, b := NewErrTracker(xa), NewErrTracker(xb)
				// Drift the running deviation away from the exact one, so a
				// recomputation on the wrong update shows in its bits.
				for k := range 200 {
					i, v := int32(r.IntN(n)), r.NormFloat64()*1e3
					a.Set(i, v)
					b.Set(i, v)
					if k == 199-singles {
						a.updates, b.updates = start-singles, start-singles
					}
				}
				if a.updates != start || a.PairDue() != (start+2 >= every) {
					t.Fatalf("start %d: updates %d, PairDue %v", start, a.updates, a.PairDue())
				}
				i, j := int32(r.IntN(n)), int32(r.IntN(n-1))
				if j >= i && !same {
					j++
				}
				if same {
					j = i
				}
				vi, vj := r.NormFloat64()*1e3, r.NormFloat64()
				if a.PairDue() {
					a.SetPair(i, j, vi, vj)
				} else {
					a.SetPairClear(i, j, vi, vj)
				}
				b.Set(i, vi)
				b.Set(j, vj)
				if !slices.Equal(xa, xb) || a.updates != b.updates ||
					math.Float64bits(a.Dev2()) != math.Float64bits(b.Dev2()) ||
					math.Float64bits(a.Err()) != math.Float64bits(b.Err()) {
					t.Fatalf("singles %d, start %d, i %d, j %d: pair update Dev2 %v Err %v (updates %d), two Sets Dev2 %v Err %v (updates %d)",
						singles, start, i, j, a.Dev2(), a.Err(), a.updates, b.Dev2(), b.Err(), b.updates)
				}
			}
		}
	}
}
