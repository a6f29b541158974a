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
