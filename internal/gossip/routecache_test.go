package gossip

import (
	"reflect"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
)

// TestRouteCacheDrawCompat verifies the routing determinism contract
// (DESIGN.md §6) end to end for the baseline engines: a run with route
// memoization enabled is bit-identical — transmissions, curve samples,
// final error bits — to the same run with every route recomputed.
// Routing consumes no randomness, so the cache cannot perturb draws.
func TestRouteCacheDrawCompat(t *testing.T) {
	g, err := graph.Generate(256, 1.5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, g.N())
	r := rng.New(4)
	for i := range base {
		base[i] = r.NormFloat64()
	}
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 400_000}

	run := func(t *testing.T, name string, fn func(routes *routing.Cache, x []float64) (*metrics.Result, []float64)) {
		t.Run(name, func(t *testing.T) {
			xCached := append([]float64(nil), base...)
			xPlain := append([]float64(nil), base...)
			cached, xc := fn(routing.NewCache(), xCached)
			plain, xp := fn(routing.NoCache(), xPlain)
			if !reflect.DeepEqual(cached, plain) {
				t.Errorf("results diverge:\ncached: %+v\nuncached: %+v", cached, plain)
			}
			if !reflect.DeepEqual(xc, xp) {
				t.Error("final value vectors diverge between cached and uncached routing")
			}
		})
	}

	run(t, "boyd", func(routes *routing.Cache, x []float64) (*metrics.Result, []float64) {
		res, err := RunBoyd(g, x, Options{Stop: stop, Faults: bern(0.1), Routes: routes}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	})
	run(t, "push-sum", func(routes *routing.Cache, x []float64) (*metrics.Result, []float64) {
		res, err := RunPushSum(g, x, Options{Stop: stop, Faults: bern(0.1), Routes: routes}, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	})
	run(t, "geographic-rejection", func(routes *routing.Cache, x []float64) (*metrics.Result, []float64) {
		res, err := RunGeographic(g, x, GeoOptions{
			Options:  Options{Stop: stop, Faults: bern(0.1), Routes: routes},
			Sampling: SamplingRejection,
		}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	})
	run(t, "geographic-uniform", func(routes *routing.Cache, x []float64) (*metrics.Result, []float64) {
		res, err := RunGeographic(g, x, GeoOptions{
			Options:  Options{Stop: stop, Routes: routes},
			Sampling: SamplingUniformNode,
		}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	})
}
