package core

import (
	"math"
	"testing"

	"geogossip/internal/hier"
	"geogossip/internal/rng"
)

// The instance below (found by the root package's randomized property
// test) has a leaf whose occupancy sits far below its Expected count, so
// the affine coefficient Beta·E#/# leaves the stability band and oracle
// rounds amplify deviation geometrically. The divergence guard must stop
// the blow-up: values stay at sane magnitudes, the sum invariant survives
// in floating point, and the run reports its incomplete squares honestly.
func TestRecursiveDivergenceGuard(t *testing.T) {
	const netSeed = uint64(0x9a88b24e8c401e1a % 1000)
	const runSeed = uint64(0x821ab3dff75dac02)
	f := newFixture(t, 128, 2.2, netSeed, hier.Config{})
	base := make([]float64, f.g.N())
	for i := range base {
		base[i] = float64(i%7) - 3
	}
	for _, loss := range []float64{0, 0.05, 0.3} {
		x := append([]float64(nil), base...)
		mean := meanOf(x)
		res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
			Eps:    5e-2,
			Faults: bern(loss),
		}, rng.New(runSeed))
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.FinalErr) || res.FinalErr > 1e3 {
			t.Fatalf("loss=%v: guard failed to stop divergence, final err %v", loss, res.FinalErr)
		}
		if drift := math.Abs(meanOf(x) - mean); drift > 1e-8*(1+math.Abs(mean)) {
			t.Fatalf("loss=%v: mean drifted by %v", loss, drift)
		}
		if !res.Converged && res.IncompleteSquares == 0 {
			t.Fatalf("loss=%v: non-converged run reports no incomplete squares", loss)
		}
	}
}

// An extreme Beta (alpha far above 1/2) must still be reported as a dirty
// run — the guard stops the blow-up but does not mask the instability.
func TestRecursiveExtremeBetaStaysDirty(t *testing.T) {
	f := newFixture(t, 512, 1.8, 420, hier.Config{})
	x := randomValues(f.g.N(), 421)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:  1e-3,
		Beta: 1.2,
	}, rng.New(422))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged && res.IncompleteSquares == 0 {
		t.Fatalf("beta=1.2 converged cleanly: %v", res.Result)
	}
	if math.IsNaN(res.FinalErr) || res.FinalErr > 1e6 {
		t.Fatalf("beta=1.2 blew up past the guard: final err %v", res.FinalErr)
	}
}
