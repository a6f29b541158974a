package gossip

import (
	"math"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

func generate(t *testing.T, n int, c float64, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.Generate(n, c, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Skipf("seed %d produced a disconnected instance", seed)
	}
	return g
}

// geoOpts returns opt as geographic gossip's options with sampling
// mode m.
func geoOpts(opt Options, m sim.Sampling) GeoOptions {
	opt.Sampling = m
	return GeoOptions{Options: opt}
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

func TestRunBoydConverges(t *testing.T) {
	g := generate(t, 300, 2.0, 80)
	x := randomValues(g.N(), 81)
	mean := meanOf(x)
	res, err := RunBoyd(g, x, Options{Stop: sim.StopRule{TargetErr: 1e-3, MaxTicks: 2_000_000}}, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %v", res)
	}
	for i, v := range x {
		if math.Abs(v-mean) > 0.05 {
			t.Fatalf("node %d value %v far from mean %v", i, v, mean)
		}
	}
	if math.Abs(meanOf(x)-mean) > 1e-9 {
		t.Fatalf("mean drifted: %v -> %v", mean, meanOf(x))
	}
	if res.Transmissions == 0 || res.Transmissions != res.TransmissionsByCategory["near"] {
		t.Fatalf("boyd should only use near transmissions: %v", res.TransmissionsByCategory)
	}
	if err := res.Curve.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunBoydSizeMismatch(t *testing.T) {
	g := generate(t, 50, 2.0, 83)
	if _, err := RunBoyd(g, make([]float64, 10), Options{}, rng.New(1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRunBoydEmpty(t *testing.T) {
	g, err := graph.Build(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBoyd(g, nil, Options{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Transmissions != 0 {
		t.Fatalf("empty run: %v", res)
	}
}

func TestRunBoydDeterministic(t *testing.T) {
	g := generate(t, 200, 2.0, 84)
	run := func() *metrics.Result {
		x := randomValues(g.N(), 85)
		res, err := RunBoyd(g, x, Options{Stop: sim.StopRule{TargetErr: 1e-2, MaxTicks: 500_000}}, rng.New(86))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.Ticks != b.Ticks || a.FinalErr != b.FinalErr {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRunBoydRespectsMaxTicks(t *testing.T) {
	g := generate(t, 100, 2.0, 87)
	x := randomValues(g.N(), 88)
	res, err := RunBoyd(g, x, Options{Stop: sim.StopRule{TargetErr: 1e-12, MaxTicks: 1000}}, rng.New(89))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 1000 {
		t.Fatalf("ticks = %d, want 1000", res.Ticks)
	}
	if res.Converged {
		t.Fatal("cannot converge to 1e-12 in 1000 ticks")
	}
}

func TestRunGeographicConvergesBothSamplings(t *testing.T) {
	for _, mode := range []sim.Sampling{sim.SamplingRejection, sim.SamplingUniformNode} {
		t.Run(mode.String(), func(t *testing.T) {
			g := generate(t, 300, 2.0, 90)
			x := randomValues(g.N(), 91)
			mean := meanOf(x)
			res, err := RunGeographic(g, x, geoOpts(Options{Stop: sim.StopRule{TargetErr: 1e-3, MaxTicks: 200_000}}, mode), rng.New(92))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge: %v", res)
			}
			if math.Abs(meanOf(x)-mean) > 1e-9 {
				t.Fatalf("mean drifted: %v -> %v", mean, meanOf(x))
			}
			if res.TransmissionsByCategory["far"] == 0 {
				t.Fatal("geographic gossip used no far transmissions")
			}
			if res.TransmissionsByCategory["near"] != 0 {
				t.Fatal("geographic gossip should not use near category")
			}
		})
	}
}

func TestGeographicBeatsBoydOnTransmissions(t *testing.T) {
	// The headline ordering: geographic gossip needs fewer transmissions
	// than nearest-neighbour gossip for the same target. Instance-to-
	// instance cost varies by ~3x, so compare totals over several seeds at
	// a size beyond the crossover (the full sweep is experiment E1).
	if testing.Short() {
		t.Skip("multi-seed comparison is slow")
	}
	const target = 1e-2
	var totalBoyd, totalGeo uint64
	for seed := uint64(1); seed <= 3; seed++ {
		g := generate(t, 2000, 1.5, seed)
		xB := randomValues(g.N(), seed+10)
		xG := append([]float64(nil), xB...)
		resB, err := RunBoyd(g, xB, Options{Stop: sim.StopRule{TargetErr: target, MaxTicks: 100_000_000}}, rng.New(seed+20))
		if err != nil {
			t.Fatal(err)
		}
		resG, err := RunGeographic(g, xG, geoOpts(Options{Stop: sim.StopRule{TargetErr: target, MaxTicks: 100_000_000}}, sim.SamplingUniformNode), rng.New(seed+30))
		if err != nil {
			t.Fatal(err)
		}
		if !resB.Converged || !resG.Converged {
			t.Fatalf("convergence failed: boyd=%v geo=%v", resB, resG)
		}
		totalBoyd += resB.Transmissions
		totalGeo += resG.Transmissions
	}
	if totalGeo >= totalBoyd {
		t.Fatalf("geographic (%d) not cheaper than boyd (%d) over 3 seeds", totalGeo, totalBoyd)
	}
}

func TestSamplerUniformNodeExact(t *testing.T) {
	g := generate(t, 200, 2.0, 97)
	ts := NewTargetSampler(g, sim.SamplingUniformNode, 0)
	r := rng.New(98)
	counts := make([]int, g.N())
	const trials = 20000
	for i := 0; i < trials; i++ {
		target, _, attempts := ts.SampleFrom(0, r)
		if attempts != 1 {
			t.Fatalf("uniform sampling used %d attempts", attempts)
		}
		if target == 0 {
			t.Fatal("uniform sampling returned the source")
		}
		counts[target]++
	}
	// Each non-source node has expectation trials/(n-1) ≈ 100.
	want := float64(trials) / float64(g.N()-1)
	for i := 1; i < g.N(); i++ {
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Fatalf("node %d sampled %d times, want ~%v", i, counts[i], want)
		}
	}
}

func TestSamplerRejectionImprovesUniformity(t *testing.T) {
	// TV distance to uniform should be smaller with rejection than with
	// plain accept-first-node sampling (maxAttempts = 1).
	g := generate(t, 300, 1.6, 99)
	tv := func(maxAttempts int) float64 {
		ts := NewTargetSampler(g, sim.SamplingRejection, maxAttempts)
		r := rng.New(100)
		src := rng.New(101)
		counts := make([]float64, g.N())
		const trials = 60000
		for i := 0; i < trials; i++ {
			s := int32(src.IntN(g.N()))
			target, _, _ := ts.SampleFrom(s, r)
			counts[target]++
		}
		var tvDist float64
		u := 1.0 / float64(g.N())
		for _, c := range counts {
			tvDist += math.Abs(c/trials - u)
		}
		return tvDist / 2
	}
	plain := tv(1)
	rejected := tv(10)
	if rejected >= plain {
		t.Fatalf("rejection TV %v not better than plain TV %v", rejected, plain)
	}
}

func TestSamplerRejectionHopsPositive(t *testing.T) {
	g := generate(t, 200, 2.0, 102)
	ts := NewTargetSampler(g, sim.SamplingRejection, 10)
	r := rng.New(103)
	sawHops := false
	for i := 0; i < 100; i++ {
		_, hops, attempts := ts.SampleFrom(0, r)
		if hops > 0 {
			sawHops = true
		}
		if attempts < 1 || attempts > 10 {
			t.Fatalf("attempts = %d", attempts)
		}
	}
	if !sawHops {
		t.Fatal("rejection sampling never spent a hop")
	}
}

func TestSamplerSmallGraphs(t *testing.T) {
	// n=1: uniform sampling returns the source.
	pts := graph.UniformPoints(1, rng.New(104))
	g, err := graph.Build(pts, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTargetSampler(g, sim.SamplingUniformNode, 0)
	target, hops, _ := ts.SampleFrom(0, rng.New(105))
	if target != 0 || hops != 0 {
		t.Fatalf("singleton sample = (%d, %d)", target, hops)
	}
}

func TestSamplingString(t *testing.T) {
	if sim.SamplingRejection.String() != "rejection" ||
		sim.SamplingUniformNode.String() != "uniform-node" {
		t.Fatal("sampling names wrong")
	}
	if sim.Sampling(9).String() != "sampling(9)" {
		t.Fatalf("unknown sampling name: %s", sim.Sampling(9))
	}
}

func TestRunGeographicDefaults(t *testing.T) {
	g := generate(t, 100, 2.0, 106)
	x := randomValues(g.N(), 107)
	res, err := RunGeographic(g, x, GeoOptions{
		Options: Options{Stop: sim.StopRule{TargetErr: 0.5, MaxTicks: 50_000}},
	}, rng.New(108))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "geographic-rejection" {
		t.Fatalf("default algorithm name = %q", res.Algorithm)
	}
}

func TestRunGeographicSizeMismatch(t *testing.T) {
	g := generate(t, 50, 2.0, 109)
	if _, err := RunGeographic(g, make([]float64, 3), GeoOptions{}, rng.New(1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestCurvesRecordProgress(t *testing.T) {
	g := generate(t, 200, 2.0, 110)
	x := randomValues(g.N(), 111)
	res, err := RunBoyd(g, x, Options{
		Stop:        sim.StopRule{TargetErr: 1e-3, MaxTicks: 2_000_000},
		RecordEvery: 100,
	}, rng.New(112))
	if err != nil {
		t.Fatal(err)
	}
	if res.Curve.Len() < 10 {
		t.Fatalf("curve has only %d samples", res.Curve.Len())
	}
	first := res.Curve.Samples[0]
	last, _ := res.Curve.Last()
	if first.Err <= last.Err {
		t.Fatalf("no error decrease recorded: %v -> %v", first.Err, last.Err)
	}
}

// TestGeographicEmptyGraphName checks that a run on an empty graph names
// the sampling mode it would have run, default included.
func TestGeographicEmptyGraphName(t *testing.T) {
	g, err := graph.Generate(0, 1.5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sampling sim.Sampling
		want     string
	}{
		{0, "geographic-rejection"},
		{sim.SamplingUniformNode, "geographic-uniform-node"},
	} {
		res, err := RunGeographic(g, nil, geoOpts(Options{}, tc.sampling), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Algorithm != tc.want || !res.Converged {
			t.Errorf("sampling %d: empty run %q (converged %v), want %q, converged", tc.sampling, res.Algorithm, res.Converged, tc.want)
		}
	}
}
