package gossip

import (
	"math"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

func TestBoydConvergesUnderLoss(t *testing.T) {
	g := generate(t, 300, 2.0, 400)
	x := randomValues(g.N(), 401)
	mean := meanOf(x)
	res, err := RunBoyd(g, x, Options{
		Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 5_000_000},
		Faults: bern(0.3),
	}, rng.New(402))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("boyd with 30%% loss did not converge: %v", res)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted under loss: %v -> %v", mean, meanOf(x))
	}
}

func TestBoydLossInflatesCost(t *testing.T) {
	g := generate(t, 300, 2.0, 403)
	run := func(loss float64) uint64 {
		x := randomValues(g.N(), 404)
		res, err := RunBoyd(g, x, Options{
			Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 5_000_000},
			Faults: bern(loss),
		}, rng.New(405))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("loss %v run did not converge", loss)
		}
		return res.Ticks
	}
	clean := run(0)
	lossy := run(0.4)
	if lossy <= clean {
		t.Fatalf("40%% loss needed %d ticks, clean run %d — loss should slow convergence", lossy, clean)
	}
}

func TestBoydTotalLossFreezesValues(t *testing.T) {
	g := generate(t, 100, 2.0, 406)
	x := randomValues(g.N(), 407)
	before := append([]float64(nil), x...)
	res, err := RunBoyd(g, x, Options{
		Stop:   sim.StopRule{TargetErr: 1e-3, MaxTicks: 10_000},
		Faults: bern(1.0),
	}, rng.New(408))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("run with 100% loss converged")
	}
	for i := range x {
		if x[i] != before[i] {
			t.Fatalf("value %d changed despite total loss", i)
		}
	}
	// Lost messages still cost transmissions.
	if res.Transmissions == 0 {
		t.Fatal("total loss charged no transmissions")
	}
}

func TestZeroLossIdenticalToBaseline(t *testing.T) {
	// A zero loss rate must not consume randomness: runs are
	// byte-identical to runs of the pre-loss code path.
	g := generate(t, 200, 2.0, 409)
	run := func(loss float64) (uint64, float64) {
		x := randomValues(g.N(), 410)
		res, err := RunBoyd(g, x, Options{
			Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
			Faults: bern(loss),
		}, rng.New(411))
		if err != nil {
			t.Fatal(err)
		}
		return res.Transmissions, res.FinalErr
	}
	tx0, err0 := run(0)
	tx0b, err0b := run(0)
	if tx0 != tx0b || err0 != err0b {
		t.Fatal("zero-loss runs not reproducible")
	}
}

func TestGeographicConvergesUnderLoss(t *testing.T) {
	g := generate(t, 300, 2.0, 412)
	x := randomValues(g.N(), 413)
	mean := meanOf(x)
	res, err := RunGeographic(g, x, GeoOptions{
		Options: Options{
			Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
			Faults: bern(0.25),
		},
	}, rng.New(414))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("geographic with 25%% loss did not converge: %v", res)
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted under loss: %v -> %v", mean, meanOf(x))
	}
}

func TestLossRateValidation(t *testing.T) {
	g := generate(t, 50, 2.5, 416)
	for _, bad := range []float64{-0.1, 1.5} {
		if _, err := RunBoyd(g, make([]float64, g.N()), Options{Faults: bern(bad)}, rng.New(1)); err == nil {
			t.Fatalf("boyd accepted loss rate %v", bad)
		}
		if _, err := RunGeographic(g, make([]float64, g.N()), GeoOptions{Options: Options{Faults: bern(bad)}}, rng.New(1)); err == nil {
			t.Fatalf("geographic accepted loss rate %v", bad)
		}
	}
}

// bern is the Bernoulli loss medium at rate p; 0 is the perfect medium.
func bern(p float64) channel.Spec {
	if p == 0 {
		return channel.Spec{}
	}
	return channel.Spec{Loss: channel.LossBernoulli, LossRate: p}
}
