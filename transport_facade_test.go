package geogossip

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"geogossip/internal/trace"
)

// TestTransportOptionValidation: WithDelay and WithARQ defer validation
// to Run and reject malformed models and conflicts with WithFaults.
func TestTransportOptionValidation(t *testing.T) {
	nw, err := NewNetwork(96, WithSeed(70), WithRadiusMultiplier(2.5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts []RunOption
	}{
		{"unknown delay distribution", []RunOption{WithDelay("trapezoid/1")}},
		{"non-positive fixed delay", []RunOption{WithDelay("fixed/0")}},
		{"inverted uniform delay bounds", []RunOption{WithDelay("uniform/0.5/0.2")}},
		{"zero arq retries", []RunOption{WithARQ(0, 1, 2)}},
		{"negative arq retries", []RunOption{WithARQ(-1, 1, 2)}},
		{"negative arq timeout", []RunOption{WithARQ(2, -1, 2)}},
		{"arq backoff below one", []RunOption{WithARQ(2, 1, 0.5)}},
		{"delay option and delay fault component", []RunOption{WithDelay("exp/0.5"), WithFaults("delay:fixed/1")}},
		{"arq option and arq fault component", []RunOption{WithARQ(2, 1, 2), WithFaults("arq:3/1/2")}},
	}
	for _, tc := range cases {
		values := make([]float64, nw.N())
		_, err := Boyd(tc.opts...).Run(nw, values)
		if err == nil {
			t.Errorf("Run accepted %s", tc.name)
		}
	}
	// Conflict errors must name the clashing option, not just fail.
	_, err = Boyd(WithARQ(2, 1, 2), WithFaults("arq:3/1/2")).Run(nw, make([]float64, nw.N()))
	if err == nil || !strings.Contains(err.Error(), "WithARQ") {
		t.Fatalf("arq conflict error %v does not name WithARQ", err)
	}
}

// TestTransportFacadeAllAlgorithms: delay + ARQ over a bursty medium
// works through the facade for every algorithm, preserves the mean, and
// surfaces simulated time and retransmission counters.
func TestTransportFacadeAllAlgorithms(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(62), WithRadiusMultiplier(2.2))
	if err != nil {
		t.Fatal(err)
	}
	opts := func() []RunOption {
		return []RunOption{
			WithTargetError(1e-2),
			WithFaults("ge:0.025/0.1/0.01/0.95"),
			WithDelay("exp/0.3"),
			WithARQ(2, 1, 2),
			WithMaxTicks(20_000_000),
		}
	}
	algos := []Algorithm{
		Boyd(opts()...),
		Geographic(opts()...),
		PushSum(opts()...),
		AffineHierarchical(opts()...),
		AffineAsync(opts()...),
	}
	for _, algo := range algos {
		values := make([]float64, nw.N())
		var want float64
		for i := range values {
			values[i] = float64(i % 17)
			want += values[i]
		}
		want /= float64(len(values))
		res, err := algo.Run(nw, values)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if !res.Converged {
			t.Errorf("%s did not converge (err %v)", algo.Name(), res.FinalErr)
		}
		// Push-sum's outputs are ratio estimates s/w: their mean only
		// approximates the target. The pairwise-averaging algorithms
		// preserve it exactly, ARQ or not.
		tol := 1e-9
		if algo.Name() == "push-sum" {
			tol = 1e-2
		}
		if got := Mean(values); math.Abs(got-want) > tol {
			t.Errorf("%s drifted the mean: %v -> %v", algo.Name(), want, got)
		}
		if res.SimSeconds <= 0 {
			t.Errorf("%s reports no simulated time under a delay model", algo.Name())
		}
	}
}

// TestTransportFacadeDeterministic: a transport run is a pure function
// of the seed, simulated time included.
func TestTransportFacadeDeterministic(t *testing.T) {
	run := func() *Result {
		nw, err := NewNetwork(192, WithSeed(31), WithRadiusMultiplier(2.2))
		if err != nil {
			t.Fatal(err)
		}
		values := make([]float64, nw.N())
		for i := range values {
			values[i] = float64(i)
		}
		res, err := Boyd(
			WithTargetError(1e-2),
			WithFaults("bernoulli:0.15"),
			WithDelay("uniform/0.1/0.4"),
			WithARQ(3, 0.5, 2),
		).Run(nw, values)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("transport runs diverged:\n first %+v\n second %+v", a, b)
	}
	if a.SimSeconds <= 0 {
		t.Fatal("transport run reports no simulated time")
	}
}

// TestTraceTotalsMatchResultUnderARQ: retransmitted airtime is billed
// on the exchange's own trace event (transport events carry zero hops),
// so the full-trace hop total reproduces Result.Transmissions under ARQ
// for every engine, and the traced retransmit/timeout counts agree with
// the metrics counters.
func TestTraceTotalsMatchResultUnderARQ(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(70), WithRadiusMultiplier(2.0))
	if err != nil {
		t.Fatal(err)
	}
	algos := []struct {
		name string
		make func(opts ...RunOption) Algorithm
	}{
		{"boyd", Boyd},
		{"geographic", Geographic},
		{"push-sum", PushSum},
		{"affine-hierarchical", AffineHierarchical},
		{"affine-async", AffineAsync},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			values := make([]float64, nw.N())
			for i, p := range nw.Positions() {
				values[i] = p[0] + 3*p[1]
			}
			var buf bytes.Buffer
			res, err := a.make(
				WithTargetError(1e-2),
				WithFaults("ge:0.05/0.2/0.05/0.6"),
				WithDelay("exp/0.3"),
				WithARQ(2, 1, 2),
				WithTraceJSONL(&buf, 0),
			).Run(nw, values)
			if err != nil {
				t.Fatal(err)
			}
			events, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			s := trace.Summarize(events, 0)
			if s.Transmissions != res.Transmissions {
				t.Errorf("trace hop total %d != result transmissions %d",
					s.Transmissions, res.Transmissions)
			}
			retransmits := res.Metrics[`geogossip_arq_retransmissions_total{engine="`+a.name+`"}`]
			timeouts := res.Metrics[`geogossip_arq_timeouts_total{engine="`+a.name+`"}`]
			if retransmits == 0 || timeouts == 0 {
				t.Fatalf("ARQ over a bursty link retransmitted nothing (%v retries, %v timeouts)", retransmits, timeouts)
			}
			if got := float64(s.Counts[trace.KindRetransmit]); got != retransmits {
				t.Errorf("trace retransmits %v != metric %v", got, retransmits)
			}
			if got := float64(s.Counts[trace.KindTimeout]); got != timeouts {
				t.Errorf("trace timeouts %v != metric %v", got, timeouts)
			}
		})
	}
}
