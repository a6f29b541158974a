package geogossip

import (
	"context"
	"math"
	"testing"
)

// TestSweepMatchesFacadeRun pins the two ways into the engine table —
// facade run options and sweep tasks — to the same run: a one-task
// sweep and a facade Run on the task's network and run seed must agree
// bit for bit.
func TestSweepMatchesFacadeRun(t *testing.T) {
	type tc struct {
		name string
		spec SweepSpec
		opts []RunOption
	}
	var cases []tc
	for _, algo := range []string{"boyd", "geographic", "push-sum", "affine-hierarchical", "affine-async"} {
		cases = append(cases, tc{algo + "/medium", SweepSpec{
			Algorithms:  []string{algo},
			FaultModels: []string{"bernoulli:0.1+churn:4000/1000"},
			Transports:  []string{"delay:exp/0.5+arq:3/1/2"},
			Recovery:    []bool{true},
		}, []RunOption{WithFaults("bernoulli:0.1+churn:4000/1000+delay:exp/0.5+arq:3/1/2"), WithRecovery()}})
	}
	cases = append(cases,
		tc{"geographic/uniform-loss", SweepSpec{
			Algorithms: []string{"geographic"},
			LossRates:  []float64{0.1},
			Samplings:  []string{"uniform"},
		}, []RunOption{WithLossRate(0.1), WithUniformSampling()}},
		tc{"affine-async/beta-throttle", SweepSpec{
			Algorithms:    []string{"affine-async"},
			Betas:         []float64{0.3},
			AsyncThrottle: 16,
		}, []RunOption{WithBeta(0.3), WithThrottle(16)}},
		tc{"affine-hierarchical/beta-loss", SweepSpec{
			Algorithms: []string{"affine-hierarchical"},
			Betas:      []float64{0.3},
			LossRates:  []float64{0.05},
		}, []RunOption{WithBeta(0.3), WithLossRate(0.05)}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			spec.Ns = []int{128}
			spec.MaxTicks = 2_000_000
			rep, err := Sweep(context.Background(), spec, WithSweepWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 1 || rep.Results[0].Err != "" {
				t.Fatalf("want one clean task, got %+v", rep.Results)
			}
			r := rep.Results[0]
			nw, err := NewNetwork(r.N, WithSeed(r.NetSeed))
			if err != nil {
				t.Fatal(err)
			}
			values := make([]float64, nw.N())
			for i, p := range nw.Positions() {
				values[i] = 10*p[0] + math.Sin(7*p[1])
			}
			opts := append([]RunOption{
				WithTargetError(r.TargetErr),
				WithMaxTicks(r.MaxTicks),
				WithRunSeed(r.RunSeed),
			}, c.opts...)
			alg, err := NewAlgorithm(r.Algorithm, opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := alg.Run(nw, values)
			if err != nil {
				t.Fatal(err)
			}
			if res.Transmissions != r.Transmissions || math.Float64bits(res.FinalErr) != math.Float64bits(r.FinalErr) ||
				res.Converged != r.Converged || res.SimSeconds != r.SimSeconds {
				t.Fatalf("facade run (tx %d, err %v, converged %v, sim %v) differs from sweep task (tx %d, err %v, converged %v, sim %v)",
					res.Transmissions, res.FinalErr, res.Converged, res.SimSeconds,
					r.Transmissions, r.FinalErr, r.Converged, r.SimSeconds)
			}
		})
	}
}
