package core

import (
	"testing"

	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

func TestRecursiveEmitsTraceEvents(t *testing.T) {
	f := newFixture(t, 512, 1.8, 470, hier.Config{})
	buf := trace.NewBuffer(0)
	x := randomValues(f.g.N(), 471)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:    1e-2,
		Tracer: buf,
	}, rng.New(472))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Count(trace.KindFar) != res.FarExchanges {
		t.Fatalf("trace far count %d != result %d", buf.Count(trace.KindFar), res.FarExchanges)
	}
	if buf.Count(trace.KindLeafDone) == 0 {
		t.Fatal("no leaf completions traced")
	}
	// Far events carry valid endpoints and positive hops.
	for _, e := range buf.Events() {
		if e.Kind != trace.KindFar {
			continue
		}
		if e.NodeA < 0 || e.NodeB < 0 || e.NodeA == e.NodeB {
			t.Fatalf("bad far event: %v", e)
		}
	}
}

func TestRecursiveTracesLosses(t *testing.T) {
	f := newFixture(t, 512, 1.8, 473, hier.Config{})
	buf := trace.NewBuffer(0)
	x := randomValues(f.g.N(), 474)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:    1e-2,
		Faults: bern(0.3),
		Tracer: buf,
	}, rng.New(475))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Count(trace.KindLoss) != res.RouteFailures {
		t.Fatalf("trace loss count %d != route failures %d", buf.Count(trace.KindLoss), res.RouteFailures)
	}
	if buf.Count(trace.KindLoss) == 0 {
		t.Fatal("30% loss produced no loss events")
	}
}

func TestAsyncEmitsTraceEvents(t *testing.T) {
	f := newFixture(t, 256, 2.0, 476, hier.Config{})
	buf := trace.NewBuffer(0)
	x := randomValues(f.g.N(), 477)
	res, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Stop:   sim.StopRule{TargetErr: 5e-2, MaxTicks: 10_000_000},
		Tracer: buf,
	}, rng.New(478))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Count(trace.KindActivate) != res.Activations {
		t.Fatalf("trace activations %d != result %d", buf.Count(trace.KindActivate), res.Activations)
	}
	if buf.Count(trace.KindDeactivate) != res.Deactivations {
		t.Fatalf("trace deactivations %d != result %d", buf.Count(trace.KindDeactivate), res.Deactivations)
	}
	if buf.Count(trace.KindFar) != res.FarExchanges {
		t.Fatalf("trace far %d != result %d", buf.Count(trace.KindFar), res.FarExchanges)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	// Determinism check: runs with and without a tracer are identical.
	f := newFixture(t, 256, 2.0, 479, hier.Config{})
	run := func(tr trace.Tracer) uint64 {
		x := randomValues(f.g.N(), 480)
		res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-2, Tracer: tr}, rng.New(481))
		if err != nil {
			t.Fatal(err)
		}
		return res.Transmissions
	}
	if run(nil) != run(trace.NewBuffer(16)) {
		t.Fatal("tracer changed the run")
	}
}
