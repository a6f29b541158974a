package gossip

import (
	"math"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

func TestPushSumConverges(t *testing.T) {
	g := generate(t, 300, 2.0, 430)
	x := randomValues(g.N(), 431)
	mean := meanOf(x)
	res, err := RunPushSum(g, x, Options{
		Stop: sim.StopRule{TargetErr: 1e-3, MaxTicks: 5_000_000},
	}, rng.New(432))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("push-sum did not converge: %v", res)
	}
	for i, v := range x {
		if math.Abs(v-mean) > 0.05 {
			t.Fatalf("node %d estimate %v far from mean %v", i, v, mean)
		}
	}
}

func TestPushSumOneMessagePerExchange(t *testing.T) {
	g := generate(t, 200, 2.0, 433)
	x := randomValues(g.N(), 434)
	res, err := RunPushSum(g, x, Options{
		Stop: sim.StopRule{MaxTicks: 10_000},
	}, rng.New(435))
	if err != nil {
		t.Fatal(err)
	}
	// Every tick of a connected node sends exactly one message.
	if res.Transmissions == 0 || res.Transmissions > res.Ticks {
		t.Fatalf("transmissions %d vs ticks %d", res.Transmissions, res.Ticks)
	}
}

func TestPushSumCheaperPerTickThanBoyd(t *testing.T) {
	g := generate(t, 300, 2.0, 436)
	xP := randomValues(g.N(), 437)
	xB := append([]float64(nil), xP...)
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 5_000_000}
	rp, err := RunPushSum(g, xP, Options{Stop: stop}, rng.New(438))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunBoyd(g, xB, Options{Stop: stop}, rng.New(438))
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Converged || !rb.Converged {
		t.Fatalf("convergence: push=%v boyd=%v", rp.Converged, rb.Converged)
	}
	perTickPush := float64(rp.Transmissions) / float64(rp.Ticks)
	perTickBoyd := float64(rb.Transmissions) / float64(rb.Ticks)
	if perTickPush >= perTickBoyd {
		t.Fatalf("push-sum %v tx/tick not below boyd %v", perTickPush, perTickBoyd)
	}
}

func TestPushSumMassInvariants(t *testing.T) {
	// Σs and Σw are invariant; the final estimates' weighted sum matches
	// the initial sum. Verified indirectly: estimates converge to the
	// exact mean, not merely to consensus.
	g := generate(t, 200, 2.0, 439)
	x := randomValues(g.N(), 440)
	mean := meanOf(x)
	if _, err := RunPushSum(g, x, Options{
		Stop: sim.StopRule{TargetErr: 1e-6, MaxTicks: 20_000_000},
	}, rng.New(441)); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if math.Abs(v-mean) > 1e-4 {
			t.Fatalf("node %d estimate %v, true mean %v — mass not conserved", i, v, mean)
		}
	}
}

func TestPushSumConservesMassUnderLoss(t *testing.T) {
	// A lost push is rolled back at the sender (KDG mass-conservation
	// bookkeeping), so Σs = Σx(0) and Σw = n stay exact under arbitrary
	// i.i.d. loss and the estimates still converge to the true mean.
	g := generate(t, 200, 2.0, 442)
	x := randomValues(g.N(), 443)
	mean := meanOf(x)
	sum0 := mean * float64(g.N())
	res, s, w, err := RunPushSumState(g, x, Options{
		Stop:   sim.StopRule{TargetErr: 1e-3, MaxTicks: 10_000_000},
		Faults: bern(0.3),
	}, rng.New(444))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("push-sum with 30%% loss did not converge: %v", res)
	}
	sumS, sumW := PushSumMass(s, w)
	if math.Abs(sumS-sum0) > 1e-9*(math.Abs(sum0)+1) {
		t.Fatalf("Σs drifted under loss: %v -> %v", sum0, sumS)
	}
	if math.Abs(sumW-float64(g.N())) > 1e-9 {
		t.Fatalf("Σw drifted under loss: %v -> %v", g.N(), sumW)
	}
	for i, v := range x {
		if math.Abs(v-mean) > 0.05 {
			t.Fatalf("node %d estimate %v far from mean %v", i, v, mean)
		}
	}
}

func TestPushSumValidation(t *testing.T) {
	g := generate(t, 50, 2.5, 443)
	if _, err := RunPushSum(g, make([]float64, 3), Options{}, rng.New(1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	empty, err := graph.Build(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPushSum(empty, nil, Options{}, rng.New(1))
	if err != nil || !res.Converged {
		t.Fatalf("empty run: %v, %v", res, err)
	}
}

func TestPushSumDeterministic(t *testing.T) {
	g := generate(t, 150, 2.0, 444)
	run := func() uint64 {
		x := randomValues(g.N(), 445)
		res, err := RunPushSum(g, x, Options{
			Stop: sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
		}, rng.New(446))
		if err != nil {
			t.Fatal(err)
		}
		return res.Transmissions
	}
	if run() != run() {
		t.Fatal("push-sum not deterministic")
	}
}
