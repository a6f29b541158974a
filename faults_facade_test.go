package geogossip

import (
	"math"
	"reflect"
	"testing"
)

// TestRunOptionValidation: every constructor defers validation to Run
// and reports a descriptive error instead of silently accepting garbage,
// leaving the caller's values untouched.
func TestRunOptionValidation(t *testing.T) {
	nw, err := NewNetwork(96, WithSeed(70), WithRadiusMultiplier(2.5))
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opts []RunOption
	}{
		{"zero target error", []RunOption{WithTargetError(0)}},
		{"negative target error", []RunOption{WithTargetError(-1e-3)}},
		{"NaN target error", []RunOption{WithTargetError(nan)}},
		{"infinite target error", []RunOption{WithTargetError(inf)}},
		{"negative loss rate", []RunOption{WithLossRate(-0.1)}},
		{"loss rate above one", []RunOption{WithLossRate(1.5)}},
		{"NaN loss rate", []RunOption{WithLossRate(nan)}},
		{"zero beta", []RunOption{WithBeta(0)}},
		{"negative beta", []RunOption{WithBeta(-0.4)}},
		{"NaN beta", []RunOption{WithBeta(nan)}},
		{"infinite beta", []RunOption{WithBeta(inf)}},
		{"zero throttle", []RunOption{WithThrottle(0)}},
		{"negative throttle", []RunOption{WithThrottle(-8)}},
		{"NaN throttle", []RunOption{WithThrottle(nan)}},
		{"infinite throttle", []RunOption{WithThrottle(inf)}},
		{"unknown fault model", []RunOption{WithFaults("quantum:0.5")}},
		{"malformed fault model", []RunOption{WithFaults("ge:0.1/0.2")}},
		{"loss rate and fault loss model", []RunOption{WithLossRate(0.1), WithFaults("bernoulli:0.2")}},
		{"churn option and churn fault model", []RunOption{WithChurn(100, 0), WithFaults("churn:100/0")}},
		{"non-positive churn up-time", []RunOption{WithChurn(0, 10)}},
		{"zero churn", []RunOption{WithChurn(0, 0)}},
		{"negative churn down-time", []RunOption{WithChurn(100, -1)}},
		{"NaN churn up-time", []RunOption{WithChurn(nan, 10)}},
		{"infinite churn up-time", []RunOption{WithChurn(inf, 10)}},
		{"NaN churn down-time", []RunOption{WithChurn(1000, nan)}},
		{"infinite churn down-time", []RunOption{WithChurn(1000, inf)}},
		{"NaN arq timeout", []RunOption{WithARQ(2, nan, 2)}},
		{"infinite arq timeout", []RunOption{WithARQ(2, inf, 2)}},
		{"NaN arq backoff", []RunOption{WithARQ(2, 1, nan)}},
		{"infinite arq backoff", []RunOption{WithARQ(2, 1, inf)}},
	}
	builders := map[string]func(...RunOption) Algorithm{
		"boyd":                Boyd,
		"geographic":          Geographic,
		"push-sum":            PushSum,
		"affine-hierarchical": AffineHierarchical,
		"affine-async":        AffineAsync,
	}
	for _, tc := range cases {
		// The tick cap bounds a run that slips past validation.
		opts := append([]RunOption{WithMaxTicks(100_000)}, tc.opts...)
		for name, build := range builders {
			values := make([]float64, nw.N())
			for i := range values {
				values[i] = float64(i)
			}
			if _, err := build(opts...).Run(nw, values); err == nil {
				t.Errorf("%s accepted %s", name, tc.name)
			}
			for i, v := range values {
				if v != float64(i) {
					t.Errorf("%s with %s changed value %d to %v", name, tc.name, i, v)
					break
				}
			}
		}
	}
}

// TestShorthandsLowerToSpecText: each medium shorthand option is its
// WithFaults component, so the two spellings run identically on every
// engine. A later call of a shorthand replaces an earlier one, and a
// zero loss rate or an empty delay model adds no component.
func TestShorthandsLowerToSpecText(t *testing.T) {
	nw, err := NewNetwork(96, WithSeed(70), WithRadiusMultiplier(2.5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		shorthand []RunOption
		spec      string
	}{
		{[]RunOption{WithLossRate(0.1)}, "bernoulli:0.1"},
		{[]RunOption{WithDelay("exp/0.5")}, "delay:exp/0.5"},
		{[]RunOption{WithARQ(3, 1, 2)}, "arq:3/1/2"},
		{[]RunOption{WithChurn(4000, 1000)}, "churn:4000/1000"},
		{[]RunOption{WithLossRate(0.3), WithLossRate(0.1)}, "bernoulli:0.1"},
		{[]RunOption{WithLossRate(0.1), WithLossRate(0)}, "perfect"},
		{[]RunOption{WithDelay("exp/0.5"), WithDelay("")}, "perfect"},
	}
	for _, tc := range cases {
		for _, name := range []string{"boyd", "geographic", "push-sum", "affine-hierarchical", "affine-async"} {
			run := func(opts ...RunOption) *Result {
				t.Helper()
				algo, err := NewAlgorithm(name, append([]RunOption{WithTargetError(1e-2), WithMaxTicks(200_000)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				values := make([]float64, nw.N())
				for i, p := range nw.Positions() {
					values[i] = p[0] + 2*p[1]
				}
				res, err := algo.Run(nw, values)
				if err != nil {
					t.Fatalf("%s with %s: %v", name, tc.spec, err)
				}
				return res
			}
			if a, b := run(tc.shorthand...), run(WithFaults(tc.spec)); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: shorthand differs from WithFaults(%q):\n%+v\n%+v", name, tc.spec, a, b)
			}
		}
	}
}

// TestWithFaultsBurstLossAllAlgorithms: the Gilbert–Elliott medium works
// through the facade for every algorithm and preserves the mean.
func TestWithFaultsBurstLossAllAlgorithms(t *testing.T) {
	nw, err := NewNetwork(384, WithSeed(62), WithRadiusMultiplier(2.0))
	if err != nil {
		t.Fatal(err)
	}
	const ge = "ge:0.025/0.1/0.01/0.95"
	algos := []Algorithm{
		Boyd(WithTargetError(1e-2), WithFaults(ge), WithMaxTicks(20_000_000)),
		Geographic(WithTargetError(1e-2), WithFaults(ge), WithMaxTicks(20_000_000)),
		PushSum(WithTargetError(1e-2), WithFaults(ge), WithMaxTicks(20_000_000)),
		AffineHierarchical(WithTargetError(1e-2), WithFaults(ge)),
		AffineAsync(WithTargetError(3e-2), WithFaults(ge), WithMaxTicks(60_000_000)),
	}
	for _, algo := range algos {
		t.Run(algo.Name(), func(t *testing.T) {
			values := make([]float64, nw.N())
			for i, p := range nw.Positions() {
				values[i] = p[0] * 5
			}
			want := Mean(values)
			res, err := algo.Run(nw, values)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("%s under burst loss did not converge: final err %v", algo.Name(), res.FinalErr)
			}
			// Push-sum's outputs are ratio estimates s/w: their mean only
			// approximates the target (the exact invariant is Σs/Σw,
			// checked in the engine tests). The pairwise-averaging
			// algorithms preserve the mean exactly.
			tol := 1e-9
			if algo.Name() == "push-sum" {
				tol = 1e-2
			}
			if math.Abs(Mean(values)-want) > tol {
				t.Fatalf("mean drifted under burst loss: %v -> %v", want, Mean(values))
			}
			if res.Alive != nil {
				t.Fatal("loss-only run reported a liveness mask")
			}
		})
	}
}

// TestWithChurnReportsLiveness: churn runs expose the per-node liveness
// mask so callers can evaluate survivor consensus.
func TestWithChurnReportsLiveness(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(63), WithRadiusMultiplier(2.0))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, nw.N())
	for i, p := range nw.Positions() {
		values[i] = p[1] * 3
	}
	res, err := Boyd(WithTargetError(1e-3), WithChurn(1_500_000, 0), WithMaxTicks(2_000_000)).Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alive == nil || len(res.Alive) != nw.N() {
		t.Fatalf("churn run liveness mask: %v", res.Alive)
	}
	dead := 0
	for _, a := range res.Alive {
		if !a {
			dead++
		}
	}
	if dead == 0 || dead == nw.N() {
		t.Fatalf("want partial churn, got %d/%d dead", dead, nw.N())
	}
}

// TestAsyncRecoveryResyncsRevivedNodes runs the facade's affine-async
// engine under reviving churn with WithRecovery: its recovery sweep must
// resync the control state of revived nodes.
func TestAsyncRecoveryResyncsRevivedNodes(t *testing.T) {
	nw, err := NewNetwork(200, WithSeed(25))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, nw.N())
	for i, p := range nw.Positions() {
		values[i] = 10*p[0] + p[1]
	}
	algo := AffineAsync(WithTargetError(1e-2), WithRecovery(),
		WithChurn(60000, 60000), WithMaxTicks(2_000_000))
	res, err := algo.Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resyncs == 0 {
		t.Fatalf("recovery sweep performed no resyncs under reviving churn: %+v", res)
	}
}

// TestPushSumFacade: the fifth algorithm family is exposed end to end.
func TestPushSumFacade(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(64), WithRadiusMultiplier(2.0))
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, nw.N())
	for i, p := range nw.Positions() {
		values[i] = p[0] + p[1]
	}
	want := Mean(values)
	res, err := PushSum(WithTargetError(1e-3), WithMaxTicks(20_000_000)).Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "push-sum" || !res.Converged {
		t.Fatalf("push-sum facade run: %+v", res)
	}
	for i, v := range values {
		if math.Abs(v-want) > 0.05 {
			t.Fatalf("node %d estimate %v far from mean %v", i, v, want)
		}
	}
}

// TestChurnDeterministic: fault-model runs replay bit-for-bit.
func TestChurnDeterministic(t *testing.T) {
	nw, err := NewNetwork(192, WithSeed(65), WithRadiusMultiplier(2.0))
	if err != nil {
		t.Fatal(err)
	}
	run := func() (uint64, float64) {
		values := make([]float64, nw.N())
		for i, p := range nw.Positions() {
			values[i] = p[0]
		}
		res, err := Boyd(WithTargetError(1e-3), WithFaults("bernoulli:0.1+churn:500000/100000"),
			WithMaxTicks(1_000_000)).Run(nw, values)
		if err != nil {
			t.Fatal(err)
		}
		return res.Transmissions, res.FinalErr
	}
	tx1, err1 := run()
	tx2, err2 := run()
	if tx1 != tx2 || err1 != err2 {
		t.Fatalf("churn run not deterministic: (%d, %v) vs (%d, %v)", tx1, err1, tx2, err2)
	}
}
