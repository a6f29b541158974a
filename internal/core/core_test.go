package core

import (
	"math"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

type fixture struct {
	g *graph.Graph
	h *hier.Hierarchy
}

func newFixture(t *testing.T, n int, c float64, seed uint64, hcfg hier.Config) fixture {
	t.Helper()
	g, err := graph.Generate(n, c, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Skipf("seed %d: disconnected instance", seed)
	}
	h, err := hier.Build(g.Points(), hcfg)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{g: g, h: h}
}

func randomValues(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func meanOf(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func relErr(x []float64, x0 []float64) float64 {
	mean := meanOf(x0)
	var dev, dev0 float64
	for i := range x {
		d := x[i] - mean
		dev += d * d
		d0 := x0[i] - mean
		dev0 += d0 * d0
	}
	return math.Sqrt(dev / dev0)
}

func TestRecursiveConverges(t *testing.T) {
	f := newFixture(t, 1024, 1.8, 130, hier.Config{})
	x := randomValues(f.g.N(), 131)
	x0 := append([]float64(nil), x...)
	mean := meanOf(x)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-3}, rng.New(132))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v (stalls=%d incomplete=%d)", res.Result, res.LeafStalls, res.IncompleteSquares)
	}
	if got := relErr(x, x0); got > 1e-3 {
		t.Fatalf("independent error check: %v > 1e-3", got)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted: %v -> %v", mean, meanOf(x))
	}
	if res.FarExchanges == 0 {
		t.Fatal("no far exchanges on a multi-level instance")
	}
	if res.TransmissionsByCategory["near"] == 0 || res.TransmissionsByCategory["far"] == 0 {
		t.Fatalf("transmissions missing a category: %v", res.TransmissionsByCategory)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveDeterministic(t *testing.T) {
	f := newFixture(t, 512, 1.8, 133, hier.Config{})
	run := func() *Result {
		x := randomValues(f.g.N(), 134)
		res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-3}, rng.New(135))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.FarExchanges != b.FarExchanges || a.FinalErr != b.FinalErr {
		t.Fatalf("nondeterministic: %v vs %v", a.Result, b.Result)
	}
}

func TestRecursiveSumPreservedExactlyAtEveryScale(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		f := newFixture(t, n, 2.0, uint64(140+n), hier.Config{})
		x := randomValues(f.g.N(), uint64(141+n))
		sumBefore := 0.0
		for _, v := range x {
			sumBefore += v
		}
		if _, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-2}, rng.New(142)); err != nil {
			t.Fatal(err)
		}
		sumAfter := 0.0
		for _, v := range x {
			sumAfter += v
		}
		if math.Abs(sumAfter-sumBefore) > 1e-7*(1+math.Abs(sumBefore)) {
			t.Fatalf("n=%d: sum drifted %v -> %v", n, sumBefore, sumAfter)
		}
	}
}

func TestRecursiveSingleLeafDegeneratesToNearGossip(t *testing.T) {
	// Small n: hierarchy is a single leaf; the algorithm reduces to local
	// gossip; no far exchanges.
	f := newFixture(t, 30, 2.5, 143, hier.Config{})
	if !f.h.Root().IsLeaf() {
		t.Skip("hierarchy unexpectedly deep")
	}
	x := randomValues(f.g.N(), 144)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-3}, rng.New(145))
	if err != nil {
		t.Fatal(err)
	}
	if res.FarExchanges != 0 {
		t.Fatalf("far exchanges on single leaf: %d", res.FarExchanges)
	}
	if !res.Converged {
		t.Fatalf("single-leaf run did not converge: %v", res.Result)
	}
}

func TestRecursiveValidation(t *testing.T) {
	f := newFixture(t, 64, 2.0, 146, hier.Config{})
	if _, err := RunRecursive(f.g, f.h, make([]float64, 3), RecursiveOptions{}, rng.New(1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	// Hierarchy/graph mismatch.
	other := newFixture(t, 32, 2.0, 147, hier.Config{})
	if _, err := RunRecursive(f.g, other.h, make([]float64, f.g.N()), RecursiveOptions{}, rng.New(1)); err == nil {
		t.Fatal("hierarchy size mismatch accepted")
	}
}

func TestRecursiveEmptyGraph(t *testing.T) {
	g, err := graph.Build(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.Build(nil, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRecursive(g, h, nil, RecursiveOptions{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Transmissions != 0 {
		t.Fatalf("empty run: %v", res.Result)
	}
}

func TestRecursiveConsensusStartIsFree(t *testing.T) {
	f := newFixture(t, 256, 2.0, 148, hier.Config{})
	x := make([]float64, f.g.N())
	for i := range x {
		x[i] = 3.7
	}
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-4}, rng.New(149))
	if err != nil {
		t.Fatal(err)
	}
	if res.Transmissions != 0 || !res.Converged {
		t.Fatalf("consensus start cost %d transmissions", res.Transmissions)
	}
}

func TestRecursiveConvexAblationIsSlower(t *testing.T) {
	// Convex rep-level updates move only O(1/#square) of each square's
	// mass per exchange: far more rounds for the same target.
	f := newFixture(t, 512, 1.8, 156, hier.Config{})
	xa := randomValues(f.g.N(), 157)
	xc := append([]float64(nil), xa...)
	affine, err := RunRecursive(f.g, f.h, xa, RecursiveOptions{Eps: 1e-2}, rng.New(158))
	if err != nil {
		t.Fatal(err)
	}
	convex, err := RunRecursive(f.g, f.h, xc, RecursiveOptions{Eps: 1e-2, Convex: true}, rng.New(158))
	if err != nil {
		t.Fatal(err)
	}
	if affine.FinalErr > 1e-2 {
		t.Fatalf("affine run missed target: %v", affine.Result)
	}
	if convex.FarExchanges <= affine.FarExchanges {
		t.Fatalf("convex (%d rounds) not slower than affine (%d rounds)",
			convex.FarExchanges, affine.FarExchanges)
	}
}

func TestRecursiveBetaOutsideBandDegrades(t *testing.T) {
	// Beta far above the stability band makes square-sum updates
	// non-contracting: the oracle safety cap trips or error stays high.
	f := newFixture(t, 512, 1.8, 159, hier.Config{})
	x := randomValues(f.g.N(), 160)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:  1e-3,
		Beta: 1.3, // α ≈ 1.3 per exchange: expansive
	}, rng.New(161))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged && res.IncompleteSquares == 0 {
		t.Fatalf("beta=1.3 run converged cleanly: %v", res.Result)
	}
}

func TestRecursiveFlatHierarchy(t *testing.T) {
	// MaxDepth 1 gives a single partition level: the flat ablation.
	f := newFixture(t, 1024, 1.8, 162, hier.Config{MaxDepth: 1})
	if f.h.Ell != 2 {
		t.Fatalf("expected flat hierarchy, ell = %d", f.h.Ell)
	}
	x := randomValues(f.g.N(), 163)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-3}, rng.New(164))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("flat run did not converge: %v", res.Result)
	}
	if res.Algorithm != "affine-flat" {
		t.Fatalf("algorithm name = %q", res.Algorithm)
	}
}

func TestAsyncConverges(t *testing.T) {
	f := newFixture(t, 512, 1.8, 165, hier.Config{})
	x := randomValues(f.g.N(), 166)
	mean := meanOf(x)
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Eps:          1e-2,
		RoundsFactor: 2,
		Stop:         sim.StopRule{TargetErr: 1e-2, MaxTicks: 30_000_000},
	}, rng.New(167))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async did not converge: %v (far=%d near=%d act=%d)",
			res.Result, res.FarExchanges, res.NearExchanges, res.Activations)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted: %v -> %v", mean, meanOf(x))
	}
	if res.Activations == 0 || res.NearExchanges == 0 {
		t.Fatalf("protocol did not run: %+v", res)
	}
	if res.TransmissionsByCategory["flood"] == 0 {
		t.Fatal("activation flooding not charged")
	}
}

func TestAsyncDeterministic(t *testing.T) {
	f := newFixture(t, 256, 2.0, 168, hier.Config{})
	run := func() *AsyncResult {
		x := randomValues(f.g.N(), 169)
		res, err := RunAsync(f.g, f.h, x, AsyncOptions{
			Stop: sim.StopRule{TargetErr: 5e-2, MaxTicks: 10_000_000},
		}, rng.New(170))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.Ticks != b.Ticks || a.FarExchanges != b.FarExchanges {
		t.Fatal("async run not deterministic")
	}
}

func TestAsyncBudgetsDecreaseWithDepth(t *testing.T) {
	f := newFixture(t, 2048, 1.6, 171, hier.Config{})
	if f.h.Ell < 2 {
		t.Skip("single-level hierarchy")
	}
	x := randomValues(f.g.N(), 172)
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Stop: sim.StopRule{MaxTicks: 100_000}, // structure check only
	}, rng.New(173))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BudgetByDepth) != f.h.Ell {
		t.Fatalf("budget depths %d, ell %d", len(res.BudgetByDepth), f.h.Ell)
	}
	for r := 1; r < len(res.BudgetByDepth); r++ {
		if res.BudgetByDepth[r-1] <= res.BudgetByDepth[r] {
			t.Fatalf("budgets not decreasing with depth: %v", res.BudgetByDepth)
		}
	}
}

func TestAsyncHigherThrottleFewerOverlaps(t *testing.T) {
	f := newFixture(t, 512, 1.8, 174, hier.Config{})
	overlapRate := func(throttle float64) float64 {
		x := randomValues(f.g.N(), 175)
		res, err := RunAsync(f.g, f.h, x, AsyncOptions{
			Throttle: throttle,
			Stop:     sim.StopRule{MaxTicks: 3_000_000},
		}, rng.New(176))
		if err != nil {
			t.Fatal(err)
		}
		if res.FarExchanges == 0 {
			t.Fatal("no far exchanges")
		}
		return float64(res.OverlapFars) / float64(res.FarExchanges)
	}
	low := overlapRate(1.5)
	high := overlapRate(16)
	if high >= low {
		t.Fatalf("throttle 16 overlap rate %v not below throttle 1.5 rate %v", high, low)
	}
}

func TestAsyncValidation(t *testing.T) {
	f := newFixture(t, 64, 2.0, 177, hier.Config{})
	if _, err := RunAsync(f.g, f.h, make([]float64, 1), AsyncOptions{}, rng.New(1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestAsyncEmptyGraph(t *testing.T) {
	g, err := graph.Build(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.Build(nil, hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAsync(g, h, nil, AsyncOptions{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("empty async run: %v", res.Result)
	}
}

func TestAsyncSingleLeaf(t *testing.T) {
	// A single-leaf hierarchy: the root rep floods its leaf on and the
	// protocol degenerates to local gossip.
	f := newFixture(t, 30, 2.5, 178, hier.Config{})
	if !f.h.Root().IsLeaf() {
		t.Skip("hierarchy unexpectedly deep")
	}
	x := randomValues(f.g.N(), 179)
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Stop: sim.StopRule{TargetErr: 1e-2, MaxTicks: 5_000_000},
	}, rng.New(180))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("single-leaf async did not converge: %v", res.Result)
	}
	if res.FarExchanges != 0 {
		t.Fatalf("far exchanges with no siblings: %d", res.FarExchanges)
	}
}

func TestBuildLeafAdjRestrictsToLeaf(t *testing.T) {
	f := newFixture(t, 512, 1.8, 181, hier.Config{})
	st := NewRunState()
	st.bind(f.g, f.h, nil)
	for i := int32(0); int(i) < f.g.N(); i++ {
		for _, v := range st.leafNbrs(i) {
			if f.h.NodeLeaf[v] != f.h.NodeLeaf[i] {
				t.Fatalf("leaf adjacency crosses leaves: %d-%d", i, v)
			}
			if !f.g.HasEdge(i, v) {
				t.Fatalf("leaf adjacency lists non-edge: %d-%d", i, v)
			}
		}
	}
}
