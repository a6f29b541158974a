package engine

import (
	"reflect"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/core"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// TestTablePassesResultsThrough checks every entry against a direct call
// of its engine with the options the entry documents: the table hands
// back the engine's own result, with nothing dropped or recomputed. The
// Config sets every knob off its default, so an entry that failed to
// pass one through would run a different protocol and differ. The last
// Config also sets the two fields the table fills in, which it must
// leave as the caller set them.
func TestTablePassesResultsThrough(t *testing.T) {
	g, err := graph.Generate(128, 2.0, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("test network is disconnected")
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, g.N())
	vr := rng.New(4)
	for i := range x0 {
		x0[i] = vr.NormFloat64()
	}

	// The table's two fills, each only where the caller left a zero.
	eps := func(c Config) float64 {
		if c.Eps != 0 {
			return c.Eps
		}
		return c.Stop.TargetErr
	}
	rounds := func(c Config) float64 {
		if c.RoundsFactor != 0 {
			return c.RoundsFactor
		}
		return 2
	}
	direct := map[string]func(x []float64, c Config, r *rng.RNG) (*metrics.Result, error){
		Boyd: func(x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
			return gossip.RunBoyd(g, x, gossip.Options{Stop: c.Stop, Faults: c.Faults, Recover: c.Recover, RecordEvery: c.RecordEvery}, r)
		},
		Geographic: func(x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
			return gossip.RunGeographic(g, x, gossip.GeoOptions{Options: gossip.Options{
				Stop: c.Stop, Faults: c.Faults, Recover: c.Recover, RecordEvery: c.RecordEvery, Sampling: c.Sampling,
			}}, r)
		},
		// Push-sum ignores Recover: the direct call leaves it off.
		PushSum: func(x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
			return gossip.RunPushSum(g, x, gossip.Options{Stop: c.Stop, Faults: c.Faults, RecordEvery: c.RecordEvery}, r)
		},
		Affine: func(x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
			res, err := core.RunRecursive(g, h, x, core.RecursiveOptions{
				Eps: eps(c), EpsDecayFactor: c.EpsDecayFactor, Beta: c.Beta, Convex: c.Convex,
				RecordEvery: c.RecordEvery, Faults: c.Faults, Recover: c.Recover,
			}, r)
			if err != nil {
				return nil, err
			}
			return res.Result, nil
		},
		Async: func(x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
			res, err := core.RunAsync(g, h, x, core.AsyncOptions{
				Eps: eps(c), Beta: c.Beta, Throttle: c.Throttle, LeafTicks: c.LeafTicks,
				RoundsFactor: rounds(c), RecordEvery: c.RecordEvery, Stop: c.Stop, Faults: c.Faults, Recover: c.Recover,
			}, r)
			if err != nil {
				return nil, err
			}
			return res.Result, nil
		},
	}

	for _, tc := range []struct {
		medium      string
		eps, rounds float64
	}{
		{"perfect", 0, 0},
		{"bernoulli:0.1", 0, 0},
		{"bernoulli:0.1", 2e-2, 3},
	} {
		medium := tc.medium
		spec, err := channel.Parse(medium)
		if err != nil {
			t.Fatal(err)
		}
		c := Config{
			Stop:           sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
			Eps:            tc.eps,
			EpsDecayFactor: 3,
			Convex:         true,
			RoundsFactor:   tc.rounds,
			RecordEvery:    7,
			Faults:         spec,
			Recover:        true,
			Beta:           0.35,
			Throttle:       6,
			LeafTicks:      48,
			Sampling:       sim.SamplingUniformNode,
		}
		for _, name := range Names() {
			e, _ := Lookup(name)
			xt := append([]float64(nil), x0...)
			got, err := e.Run(g, h, xt, c, rng.New(9))
			if err != nil {
				t.Fatalf("%s on %s: table run: %v", name, medium, err)
			}
			xd := append([]float64(nil), x0...)
			want, err := direct[name](xd, c, rng.New(9))
			if err != nil {
				t.Fatalf("%s on %s: direct run: %v", name, medium, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: table result %v differs from the direct call's %v", name, medium, got, want)
			}
			if !reflect.DeepEqual(xt, xd) {
				t.Errorf("%s on %s: table run left different values than the direct call", name, medium)
			}
			if e.Hierarchical && got.FarExchanges == 0 {
				t.Errorf("%s on %s: no far exchanges counted", name, medium)
			}
			if name == Async && (got.Activations == 0 || len(got.BudgetByDepth) == 0) {
				t.Errorf("%s on %s: activations %d, budgets %v: the async counters are missing",
					name, medium, got.Activations, got.BudgetByDepth)
			}
		}
	}
}
