package gossip

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// stateConfigs is the fault/recovery matrix the pooled-vs-fresh suite
// runs every baseline engine through.
var stateConfigs = []struct {
	name   string
	faults string
	resync bool
}{
	{name: "perfect"},
	{name: "bernoulli", faults: "bernoulli:0.2"},
	{name: "gilbert-elliott", faults: "ge:0.05/0.2/0.01/0.6"},
	{name: "churn", faults: "churn:40000/10000"},
	{name: "churn-resync", faults: "churn:40000/10000", resync: true},
	{name: "jam", faults: "jam:0.5/0.5/0.25/0.9"},
	{name: "jam-churn", faults: "jam:0.5/0.5/0.25/0.9+churn:40000/10000"},
	{name: "delay-arq", faults: "bernoulli:0.1+delay:exp/0.5+arq:3/1/2"},
	{name: "jam-transport", faults: "jam:0.5/0.5/0.25/0.9/2000/60000+delay:uniform/0.5/2+reorder:0.1+dup:0.05+arq:2/1/2"},
}

// sameResult compares every deterministic field of two runs.
func sameResult(t *testing.T, label string, fresh, pooled *metrics.Result) {
	t.Helper()
	if fresh.Transmissions != pooled.Transmissions || fresh.Ticks != pooled.Ticks ||
		fresh.FinalErr != pooled.FinalErr || fresh.Converged != pooled.Converged ||
		fresh.Resyncs != pooled.Resyncs || fresh.Reelections != pooled.Reelections {
		t.Fatalf("%s: pooled run diverged:\nfresh:  %+v\npooled: %+v", label, fresh, pooled)
	}
	if !reflect.DeepEqual(fresh.TransmissionsByCategory, pooled.TransmissionsByCategory) {
		t.Fatalf("%s: breakdown diverged: %v vs %v", label, fresh.TransmissionsByCategory, pooled.TransmissionsByCategory)
	}
	if !reflect.DeepEqual(fresh.Curve.Samples, pooled.Curve.Samples) {
		t.Fatalf("%s: curve diverged (%d vs %d samples)", label, fresh.Curve.Len(), pooled.Curve.Len())
	}
	if !reflect.DeepEqual(fresh.Alive, pooled.Alive) {
		t.Fatalf("%s: liveness mask diverged", label)
	}
}

// TestPooledStateBitIdentical runs every baseline engine through the
// fault matrix twice — fresh private state vs one RunState shared across
// ALL the runs (cross-engine, cross-config, the sweep-worker usage) —
// and requires bit-identical results everywhere.
func TestPooledStateBitIdentical(t *testing.T) {
	g := generate(t, 400, 2.0, 900)
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000}
	pooled := NewRunState()

	type runner struct {
		name string
		run  func(opt Options, r *rng.RNG) (*metrics.Result, []float64, error)
	}
	runners := []runner{
		{"boyd", func(opt Options, r *rng.RNG) (*metrics.Result, []float64, error) {
			x := randomValues(g.N(), 901)
			res, err := RunBoyd(g, x, opt, r)
			return res, x, err
		}},
		{"geographic-rejection", func(opt Options, r *rng.RNG) (*metrics.Result, []float64, error) {
			x := randomValues(g.N(), 902)
			res, err := RunGeographic(g, x, GeoOptions{Options: opt, Sampling: SamplingRejection}, r)
			return res, x, err
		}},
		{"geographic-uniform", func(opt Options, r *rng.RNG) (*metrics.Result, []float64, error) {
			x := randomValues(g.N(), 903)
			res, err := RunGeographic(g, x, GeoOptions{Options: opt, Sampling: SamplingUniformNode}, r)
			return res, x, err
		}},
		{"push-sum", func(opt Options, r *rng.RNG) (*metrics.Result, []float64, error) {
			x := randomValues(g.N(), 904)
			res, err := RunPushSum(g, x, opt, r)
			return res, x, err
		}},
	}

	for _, cfg := range stateConfigs {
		for _, rn := range runners {
			label := fmt.Sprintf("%s/%s", rn.name, cfg.name)
			freshOpt := Options{Stop: stop, Faults: parseSpec(t, cfg.faults), Resync: cfg.resync}
			fresh, xFresh, err := rn.run(freshOpt, rng.New(905))
			if err != nil {
				t.Fatalf("%s: fresh: %v", label, err)
			}
			pooledOpt := freshOpt
			pooledOpt.State = pooled
			got, xPooled, err := rn.run(pooledOpt, rng.New(905))
			if err != nil {
				t.Fatalf("%s: pooled: %v", label, err)
			}
			sameResult(t, label, fresh, got)
			for i := range xFresh {
				if xFresh[i] != xPooled[i] {
					t.Fatalf("%s: value vector diverged at %d: %v vs %v", label, i, xFresh[i], xPooled[i])
				}
			}
		}
	}
}

// TestPooledStateSurvivesGraphChange rebinds one state across different
// graphs and checks results still match fresh state — the sweep worker
// crosses network builds constantly.
func TestPooledStateSurvivesGraphChange(t *testing.T) {
	gA := generate(t, 300, 2.0, 910)
	gB := generate(t, 500, 1.8, 911)
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000}
	pooled := NewRunState()
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			g    *graph.Graph
			seed uint64
		}{{gA, 912}, {gB, 913}} {
			x1 := randomValues(tc.g.N(), tc.seed)
			x2 := randomValues(tc.g.N(), tc.seed)
			fresh, err := RunGeographic(tc.g, x1, GeoOptions{Options: Options{Stop: stop}}, rng.New(914))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunGeographic(tc.g, x2, GeoOptions{Options: Options{Stop: stop, State: pooled}}, rng.New(914))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("round %d n=%d", round, tc.g.N()), fresh, got)
		}
	}
}

// TestSteadyStateTicksAllocFree drives the three baseline engines' tick
// bodies directly after warm-up and requires zero allocations per tick —
// the steady-state contract the pooled run states exist to provide.
func TestSteadyStateTicksAllocFree(t *testing.T) {
	g := generate(t, 512, 1.8, 920)
	media := []struct {
		name   string
		faults string
	}{
		{"perfect", ""},
		{"bernoulli", "bernoulli:0.2"},
	}
	for _, medium := range media {
		opt := Options{
			Stop:        sim.StopRule{MaxTicks: math.MaxUint64 >> 1},
			RecordEvery: math.MaxUint64 >> 1, // no curve sampling inside the window
			Faults:      parseSpec(t, medium.faults),
			State:       NewRunState(),
		}

		x := randomValues(g.N(), 921)
		boyd, err := newBoydRun(g, x, opt, rng.New(922))
		if err != nil {
			t.Fatal(err)
		}
		boydBatch := oneBatch(boyd.h, boyd.run)
		runFor(boyd.h, boyd.run, 2000)
		if avg := testing.AllocsPerRun(500, boydBatch); avg != 0 {
			t.Errorf("boyd/%s: %v allocs per steady-state pipeline batch, want 0", medium.name, avg)
		}

		x = randomValues(g.N(), 923)
		geoOpt := GeoOptions{Options: opt, Sampling: SamplingRejection}
		geoOpt.State = NewRunState()
		geo, err := newGeoRun(g, x, geoOpt.withDefaults(), rng.New(924))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			geo.step()
		}
		if avg := testing.AllocsPerRun(500, geo.step); avg != 0 {
			t.Errorf("geographic/%s: %v allocs per steady-state tick, want 0", medium.name, avg)
		}

		x = randomValues(g.N(), 925)
		pushOpt := opt
		pushOpt.State = NewRunState()
		push, err := newPushSumRun(g, x, pushOpt, rng.New(926))
		if err != nil {
			t.Fatal(err)
		}
		pushBatch := oneBatch(push.h, push.run)
		runFor(push.h, push.run, 2000)
		if avg := testing.AllocsPerRun(500, pushBatch); avg != 0 {
			t.Errorf("push-sum/%s: %v allocs per steady-state pipeline batch, want 0", medium.name, avg)
		}
	}
}
