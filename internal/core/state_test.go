package core

import (
	"math"
	"reflect"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// coreStateConfigs is the fault/recovery matrix the pooled-vs-fresh
// suite runs both hierarchy engines through.
var coreStateConfigs = []struct {
	name    string
	faults  string
	recover bool
}{
	{name: "perfect"},
	{name: "bernoulli", faults: "bernoulli:0.15"},
	{name: "gilbert-elliott", faults: "ge:0.05/0.2/0.01/0.6"},
	{name: "churn", faults: "churn:60000/20000"},
	{name: "churn-recover", faults: "churn:60000/20000", recover: true},
	{name: "repchurn-recover", faults: "repchurn:60000/60000", recover: true},
	{name: "jam", faults: "jam:0.5/0.5/0.25/0.9"},
	{name: "delay-arq", faults: "bernoulli:0.1+delay:exp/0.5+arq:3/1/2"},
	{name: "jam-transport", faults: "jam:0.5/0.5/0.25/0.9/2000/60000+delay:uniform/0.5/2+reorder:0.1+dup:0.05+arq:2/1/2"},
}

func coreSpec(t *testing.T, text string) channel.Spec {
	t.Helper()
	spec, err := channel.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPooledStateBitIdenticalRecursive runs the recursive engine through
// the fault matrix with fresh vs pooled state and requires bit-identical
// results — including re-election counts under recovery, which exercise
// the RepView against the former per-run Clone.
func TestPooledStateBitIdenticalRecursive(t *testing.T) {
	f := newFixture(t, 400, 2.0, 930, hier.Config{})
	pooled := NewRunState()
	for _, cfg := range coreStateConfigs {
		opt := RecursiveOptions{
			Eps:     5e-2,
			Faults:  coreSpec(t, cfg.faults),
			Recover: cfg.recover,
		}
		x1 := randomValues(f.g.N(), 931)
		fresh, err := RunRecursive(f.g, f.h, x1, opt, rng.New(932))
		if err != nil {
			t.Fatalf("%s: fresh: %v", cfg.name, err)
		}
		optPooled := opt
		optPooled.State = pooled
		x2 := randomValues(f.g.N(), 931)
		got, err := RunRecursive(f.g, f.h, x2, optPooled, rng.New(932))
		if err != nil {
			t.Fatalf("%s: pooled: %v", cfg.name, err)
		}
		if fresh.Transmissions != got.Transmissions || fresh.FinalErr != got.FinalErr ||
			fresh.FarExchanges != got.FarExchanges || fresh.Reelections != got.Reelections ||
			fresh.RouteFailures != got.RouteFailures || fresh.LeafStalls != got.LeafStalls ||
			fresh.IncompleteSquares != got.IncompleteSquares {
			t.Fatalf("%s: pooled recursive run diverged:\nfresh:  %+v\npooled: %+v", cfg.name, fresh, got)
		}
		if !reflect.DeepEqual(fresh.TransmissionsByCategory, got.TransmissionsByCategory) {
			t.Fatalf("%s: breakdown diverged", cfg.name)
		}
		if !reflect.DeepEqual(fresh.Curve.Samples, got.Curve.Samples) {
			t.Fatalf("%s: curve diverged", cfg.name)
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("%s: value vector diverged at %d", cfg.name, i)
			}
		}
		// The shared hierarchy build must stay pristine even after
		// recovery runs (the RepView contract).
		if err := f.h.Validate(); err != nil {
			t.Fatalf("%s: shared hierarchy mutated: %v", cfg.name, err)
		}
	}
}

// TestPooledStateBitIdenticalAsync is the async-engine counterpart.
func TestPooledStateBitIdenticalAsync(t *testing.T) {
	f := newFixture(t, 600, 2.0, 940, hier.Config{})
	pooled := NewRunState()
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000}
	for _, cfg := range coreStateConfigs {
		opt := AsyncOptions{
			Eps:     1e-2,
			Faults:  coreSpec(t, cfg.faults),
			Recover: cfg.recover,
			Stop:    stop,
		}
		x1 := randomValues(f.g.N(), 941)
		fresh, err := RunAsync(f.g, f.h, x1, opt, rng.New(942))
		if err != nil {
			t.Fatalf("%s: fresh: %v", cfg.name, err)
		}
		optPooled := opt
		optPooled.State = pooled
		x2 := randomValues(f.g.N(), 941)
		got, err := RunAsync(f.g, f.h, x2, optPooled, rng.New(942))
		if err != nil {
			t.Fatalf("%s: pooled: %v", cfg.name, err)
		}
		if fresh.Transmissions != got.Transmissions || fresh.FinalErr != got.FinalErr ||
			fresh.Ticks != got.Ticks || fresh.FarExchanges != got.FarExchanges ||
			fresh.NearExchanges != got.NearExchanges || fresh.Activations != got.Activations ||
			fresh.Deactivations != got.Deactivations || fresh.Reelections != got.Reelections ||
			fresh.Resyncs != got.Resyncs || fresh.RouteFailures != got.RouteFailures {
			t.Fatalf("%s: pooled async run diverged:\nfresh:  %+v\npooled: %+v", cfg.name, fresh, got)
		}
		if !reflect.DeepEqual(fresh.TransmissionsByCategory, got.TransmissionsByCategory) {
			t.Fatalf("%s: breakdown diverged", cfg.name)
		}
		if !reflect.DeepEqual(fresh.Curve.Samples, got.Curve.Samples) {
			t.Fatalf("%s: curve diverged", cfg.name)
		}
		if !reflect.DeepEqual(fresh.BudgetByDepth, got.BudgetByDepth) {
			t.Fatalf("%s: budgets diverged", cfg.name)
		}
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("%s: value vector diverged at %d", cfg.name, i)
			}
		}
		if err := f.h.Validate(); err != nil {
			t.Fatalf("%s: shared hierarchy mutated: %v", cfg.name, err)
		}
	}
}

// TestPooledStateInterleavedEngines alternates recursive and async runs
// (and two different networks) on ONE state — the sweep-worker pattern —
// and requires every run to match its fresh twin.
func TestPooledStateInterleavedEngines(t *testing.T) {
	fA := newFixture(t, 500, 2.0, 950, hier.Config{})
	fB := newFixture(t, 700, 1.8, 951, hier.Config{})
	pooled := NewRunState()
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000}
	for round, f := range []fixture{fA, fB, fA, fB} {
		x1 := randomValues(f.g.N(), uint64(960+round))
		x2 := randomValues(f.g.N(), uint64(960+round))
		freshR, err := RunRecursive(f.g, f.h, x1, RecursiveOptions{Eps: 1e-2}, rng.New(970))
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := RunRecursive(f.g, f.h, x2, RecursiveOptions{Eps: 1e-2, State: pooled}, rng.New(970))
		if err != nil {
			t.Fatal(err)
		}
		if freshR.Transmissions != gotR.Transmissions || freshR.FinalErr != gotR.FinalErr {
			t.Fatalf("round %d: recursive diverged on pooled state", round)
		}
		x1 = randomValues(f.g.N(), uint64(980+round))
		x2 = randomValues(f.g.N(), uint64(980+round))
		freshA, err := RunAsync(f.g, f.h, x1, AsyncOptions{Eps: 1e-2, Stop: stop}, rng.New(971))
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := RunAsync(f.g, f.h, x2, AsyncOptions{Eps: 1e-2, Stop: stop, State: pooled}, rng.New(971))
		if err != nil {
			t.Fatal(err)
		}
		if freshA.Transmissions != gotA.Transmissions || freshA.FinalErr != gotA.FinalErr || freshA.Ticks != gotA.Ticks {
			t.Fatalf("round %d: async diverged on pooled state", round)
		}
	}
}

// TestAsyncSteadyStateTicksAllocFree drives the async engine's tick body
// after a completed warm run and requires zero allocations per tick.
func TestAsyncSteadyStateTicksAllocFree(t *testing.T) {
	f := newFixture(t, 512, 1.8, 990, hier.Config{})
	st := NewRunState()
	x := randomValues(f.g.N(), 991)
	if _, err := RunAsync(f.g, f.h, x, AsyncOptions{
		Eps:         1e-2,
		RecordEvery: math.MaxUint64 >> 1,
		Stop:        sim.StopRule{MaxTicks: 200_000},
		State:       st,
	}, rng.New(992)); err != nil {
		t.Fatal(err)
	}
	// The engine state is still live inside st; keep ticking it. Routes
	// and floods are warm in the run's cache, so steady-state ticks must
	// not allocate.
	e := &st.async
	for i := 0; i < 2000; i++ {
		e.step()
	}
	if avg := testing.AllocsPerRun(500, e.step); avg != 0 {
		t.Errorf("async: %v allocs per steady-state tick, want 0", avg)
	}
}

// TestRecursiveFarExchangeAllocFree drives the recursive engine's
// steady-state work unit — a far exchange between sibling squares, route
// round trip included — after a warm run and requires zero allocations.
func TestRecursiveFarExchangeAllocFree(t *testing.T) {
	f := newFixture(t, 512, 1.8, 995, hier.Config{})
	st := NewRunState()
	x := randomValues(f.g.N(), 996)
	if _, err := RunRecursive(f.g, f.h, x, RecursiveOptions{
		Eps:         1e-2,
		RecordEvery: 1 << 40,
		State:       st,
	}, rng.New(997)); err != nil {
		t.Fatal(err)
	}
	e := &st.rec
	root := f.h.Root()
	m, _ := e.kidCount(root)
	if m < 2 {
		t.Skip("root has fewer than two populated children")
	}
	a, b := e.kid(root, 0), e.kid(root, 1)
	warm := func() { e.farExchange(a, b) }
	for i := 0; i < 100; i++ {
		warm()
	}
	if avg := testing.AllocsPerRun(500, warm); avg != 0 {
		t.Errorf("recursive far exchange: %v allocs, want 0", avg)
	}
	// The leaf-averaging path (Near exchanges over the flattened leaf
	// adjacency) must be allocation-free too.
	var leaf *hier.Square
	for _, sq := range f.h.Leaves() {
		if len(sq.Members) > 4 {
			leaf = sq
			break
		}
	}
	if leaf == nil {
		t.Skip("no populated leaf")
	}
	near := func() { e.leafAverage(leaf, 1e-12) }
	near()
	if avg := testing.AllocsPerRun(20, near); avg != 0 {
		t.Errorf("recursive leaf averaging: %v allocs, want 0", avg)
	}
}
