package core

import (
	"math"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// burstFaults is a heavily bursty medium: ~20% stationary loss arriving
// in runs of ~10 packets.
func burstFaults() channel.Spec {
	return channel.Spec{
		Loss: channel.LossGilbertElliott,
		GE:   channel.GEParams{PGoodToBad: 0.025, PBadToGood: 0.1, LossGood: 0.01, LossBad: 0.95},
	}
}

// TestRecursiveAtomicUnderBurstLoss: far and near exchanges commit
// atomically per pair, so the mean is exactly invariant under burst loss
// and the oracle rounds absorb the lost exchanges.
func TestRecursiveAtomicUnderBurstLoss(t *testing.T) {
	f := newFixture(t, 512, 1.8, 520, hier.Config{})
	x := randomValues(f.g.N(), 521)
	mean := meanOf(x)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:    1e-2,
		Faults: burstFaults(),
	}, rng.New(522))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("recursive under burst loss did not converge: %v", res.Result)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted under burst loss: %v -> %v", mean, meanOf(x))
	}
	if res.RouteFailures == 0 {
		t.Fatal("burst loss produced no recorded route failures")
	}
}

func TestAsyncAtomicUnderBurstLoss(t *testing.T) {
	f := newFixture(t, 384, 2.0, 523, hier.Config{})
	x := randomValues(f.g.N(), 524)
	mean := meanOf(x)
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Eps:    3e-2,
		Faults: burstFaults(),
		Stop:   sim.StopRule{TargetErr: 3e-2, MaxTicks: 60_000_000},
	}, rng.New(525))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("async under burst loss did not converge: %v", res.Result)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted under burst loss: %v -> %v", mean, meanOf(x))
	}
}

// TestRecursiveSumInvariantUnderChurn: churn (transmission-driven for
// this clockless engine) freezes dead nodes but every committed update
// remains an atomic pair exchange, so Σx over all nodes cannot move.
func TestRecursiveSumInvariantUnderChurn(t *testing.T) {
	f := newFixture(t, 512, 1.8, 526, hier.Config{})
	x := randomValues(f.g.N(), 527)
	sum0 := meanOf(x) * float64(f.g.N())
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps: 1e-2,
		Faults: channel.Spec{
			Churn: channel.ChurnParams{MeanUp: 500_000, MeanDown: 100_000},
		},
	}, rng.New(528))
	if err != nil {
		t.Fatal(err)
	}
	got := meanOf(x) * float64(f.g.N())
	if math.Abs(got-sum0) > 1e-9*(math.Abs(sum0)+1) {
		t.Fatalf("sum drifted under churn: %v -> %v", sum0, got)
	}
	_ = res
}

// TestAsyncSumInvariantUnderChurn: the event-driven engine skips dead
// representatives and rolls back failed exchanges; Σx stays exact and
// the result carries the liveness mask.
func TestAsyncSumInvariantUnderChurn(t *testing.T) {
	f := newFixture(t, 384, 2.0, 529, hier.Config{})
	x := randomValues(f.g.N(), 530)
	sum0 := meanOf(x) * float64(f.g.N())
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Eps: 3e-2,
		Faults: channel.Spec{
			Loss:     channel.LossBernoulli,
			LossRate: 0.1,
			Churn:    channel.ChurnParams{MeanUp: 2_000_000, MeanDown: 500_000},
		},
		Stop: sim.StopRule{MaxTicks: 5_000_000},
	}, rng.New(531))
	if err != nil {
		t.Fatal(err)
	}
	got := meanOf(x) * float64(f.g.N())
	if math.Abs(got-sum0) > 1e-9*(math.Abs(sum0)+1) {
		t.Fatalf("sum drifted under churn+loss: %v -> %v", sum0, got)
	}
	if res.Alive == nil {
		t.Fatal("churn run reported no liveness mask")
	}
}

func TestCoreFaultValidation(t *testing.T) {
	f := newFixture(t, 64, 2.5, 532, hier.Config{})
	x := make([]float64, f.g.N())
	if _, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Faults: bern(1.5)}, rng.New(1)); err == nil {
		t.Fatal("recursive accepted loss rate 1.5")
	}
	if _, err := RunAsync(f.g, f.h, x, AsyncOptions{Faults: bern(-0.1)}, rng.New(1)); err == nil {
		t.Fatal("async accepted loss rate -0.1")
	}
}
