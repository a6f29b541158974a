package core

import (
	"reflect"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
)

// TestRouteCacheDrawCompat verifies the routing determinism contract
// (DESIGN.md §6) for the hierarchy engines — the heaviest cache users:
// recursive and async runs with route/flood memoization are bit-identical
// to the same runs with every route and flood recomputed, including
// under loss (the channel draws must stay aligned) and with recovery on.
func TestRouteCacheDrawCompat(t *testing.T) {
	g, err := graph.Generate(512, 1.5, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, g.N())
	r := rng.New(22)
	for i := range base {
		base[i] = r.NormFloat64()
	}

	t.Run("recursive", func(t *testing.T) {
		run := func(routes *routing.Cache) (*Result, []float64) {
			x := append([]float64(nil), base...)
			res, err := RunRecursive(g, h, x, RecursiveOptions{
				Eps:    1e-2,
				Faults: bern(0.05),
				Routes: routes,
			}, rng.New(23))
			if err != nil {
				t.Fatal(err)
			}
			return res, x
		}
		cached, xc := run(routing.NewCache())
		plain, xp := run(routing.NoCache())
		if !reflect.DeepEqual(cached, plain) {
			t.Errorf("recursive results diverge:\ncached: %+v\nuncached: %+v", cached.Result, plain.Result)
		}
		if !reflect.DeepEqual(xc, xp) {
			t.Error("recursive final values diverge between cached and uncached routing")
		}
	})

	t.Run("async", func(t *testing.T) {
		run := func(routes *routing.Cache) (*AsyncResult, []float64) {
			x := append([]float64(nil), base...)
			res, err := RunAsync(g, h, x, AsyncOptions{
				Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 600_000},
				Faults: bern(0.05),
				Routes: routes,
			}, rng.New(24))
			if err != nil {
				t.Fatal(err)
			}
			return res, x
		}
		cached, xc := run(routing.NewCache())
		plain, xp := run(routing.NoCache())
		if !reflect.DeepEqual(cached, plain) {
			t.Errorf("async results diverge:\ncached: %+v\nuncached: %+v", cached.Result, plain.Result)
		}
		if !reflect.DeepEqual(xc, xp) {
			t.Error("async final values diverge between cached and uncached routing")
		}
	})

	t.Run("async-churn-recover", func(t *testing.T) {
		// Recovery re-elects representatives mid-run, changing which
		// (src, dst) pairs the cache sees — the takeover paths must stay
		// identical too.
		run := func(routes *routing.Cache) (*AsyncResult, []float64) {
			x := append([]float64(nil), base...)
			res, err := RunAsync(g, h, x, AsyncOptions{
				Stop:    sim.StopRule{TargetErr: 1e-2, MaxTicks: 400_000},
				Faults:  repChurn(t, "repchurn:60000/30000"),
				Recover: true,
				Routes:  routes,
			}, rng.New(25))
			if err != nil {
				t.Fatal(err)
			}
			return res, x
		}
		cached, xc := run(routing.NewCache())
		plain, xp := run(routing.NoCache())
		if !reflect.DeepEqual(cached, plain) {
			t.Errorf("async churn results diverge:\ncached: %+v\nuncached: %+v", cached.Result, plain.Result)
		}
		if !reflect.DeepEqual(xc, xp) {
			t.Error("async churn final values diverge between cached and uncached routing")
		}
	})
}
