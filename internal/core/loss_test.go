package core

import (
	"math"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// bern is the Bernoulli loss medium at rate p; 0 is the perfect medium.
func bern(p float64) channel.Spec {
	if p == 0 {
		return channel.Spec{}
	}
	return channel.Spec{Loss: channel.LossBernoulli, LossRate: p}
}

func TestRecursiveConvergesUnderLoss(t *testing.T) {
	f := newFixture(t, 512, 1.8, 420, hier.Config{})
	x := randomValues(f.g.N(), 421)
	mean := meanOf(x)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:    1e-2,
		Faults: bern(0.2),
	}, rng.New(422))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("recursive with 20%% loss did not converge: %v (stalls=%d)", res.Result, res.LeafStalls)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted under loss: %v -> %v", mean, meanOf(x))
	}
	if res.RouteFailures == 0 {
		t.Fatal("20% loss produced no recorded route failures")
	}
}

func TestRecursiveLossInflatesCost(t *testing.T) {
	f := newFixture(t, 512, 1.8, 423, hier.Config{})
	run := func(loss float64) uint64 {
		x := randomValues(f.g.N(), 424)
		res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
			Eps:    1e-2,
			Faults: bern(loss),
		}, rng.New(425))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("loss %v run did not converge", loss)
		}
		return res.Transmissions
	}
	clean := run(0)
	lossy := run(0.3)
	if lossy <= clean {
		t.Fatalf("30%% loss cost %d transmissions, clean run %d", lossy, clean)
	}
}

func TestAsyncConvergesUnderLoss(t *testing.T) {
	f := newFixture(t, 256, 2.0, 426, hier.Config{})
	x := randomValues(f.g.N(), 427)
	mean := meanOf(x)
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Eps:    2e-2,
		Faults: bern(0.2),
		Stop:   sim.StopRule{TargetErr: 2e-2, MaxTicks: 40_000_000},
	}, rng.New(428))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async with 20%% loss did not converge: %v", res.Result)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted under loss: %v -> %v", mean, meanOf(x))
	}
}
