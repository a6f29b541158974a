package core

import (
	"math"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

func benchNetwork(b *testing.B, n int) (*graph.Graph, *hier.Hierarchy) {
	b.Helper()
	g, err := graph.Generate(n, 1.8, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		b.Fatal(err)
	}
	return g, h
}

func benchValues(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// BenchmarkAsyncSteadyTick measures one warm async-engine tick (§4.2):
// clock draw, representative role steps, near exchange — routes and
// floods served by the warm routing cache. The steady-state contract is
// 0 allocs/op.
func BenchmarkAsyncSteadyTick(b *testing.B) { benchAsyncSteadyTick(b, nil) }

// benchAsyncSteadyTick warms the async engine with a 200000-tick run,
// then times b.N further ticks of it with scope attached, through the
// engine's own tick loop. The warm-up stops short of the cap the timed
// ticks run under: lifting the run's cap before timing makes them ticks
// a run with a larger cap reaches, not steps of a finished run past its
// limit.
func benchAsyncSteadyTick(b *testing.B, scope *obs.Scope) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 2)
	if _, err := RunAsync(g, h, x, AsyncOptions{
		Eps:         1e-2,
		RecordEvery: math.MaxUint64 >> 1,
		Stop:        sim.StopRule{MaxTicks: 200_000},
		State:       st,
		Obs:         scope,
	}, rng.New(3)); err != nil {
		b.Fatal(err)
	}
	e := &st.async
	e.run.Stop.MaxTicks = e.run.Clock.Ticks() + 1000
	e.loop()
	b.ReportAllocs()
	b.ResetTimer()
	e.run.Stop.MaxTicks = e.run.Clock.Ticks() + uint64(b.N)
	e.loop()
}

// step runs one tick of a warm async engine through its tick loop,
// whatever its stop rule says: the steady-state allocation tests tick a
// finished run through it.
func (e *asyncEngine) step() {
	limit := e.run.Stop.MaxTicks
	e.run.Stop.MaxTicks = e.run.Clock.Ticks() + 1
	e.loop()
	e.run.Stop.MaxTicks = limit
}

// BenchmarkRecursiveFarExchange measures the recursive engine's
// steady-state work unit: one long-range affine exchange between sibling
// representatives, warm route round trip included.
func BenchmarkRecursiveFarExchange(b *testing.B) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 4)
	if _, err := RunRecursive(g, h, x, RecursiveOptions{
		Eps:         1e-2,
		RecordEvery: 1 << 40,
		State:       st,
	}, rng.New(5)); err != nil {
		b.Fatal(err)
	}
	e := &st.rec
	root := h.Root()
	m, _ := e.kidCount(root)
	if m < 2 {
		b.Fatal("root has fewer than two populated children")
	}
	ka, kb := e.kid(root, 0), e.kid(root, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.farExchange(ka, kb)
	}
}

// BenchmarkRecursiveRun times whole runs of the recursive engine at
// n = 1024 (the larger grid-ref size: perfect medium, Eps 1e-2) on one
// pooled state, each from the same start: leaf Near gossip, which
// carries nearly all of the engine's transmissions, the far exchanges
// and the oracle's square scans, up to the run-end metrics flush but
// not the result RunRecursive builds after it. BenchmarkRecursiveFarExchange
// times a far exchange alone and never reaches the leaf loop. It
// reports the run's time per Near exchange (two Near transmissions) and
// per far exchange; steady state is 0 allocs/op.
func BenchmarkRecursiveRun(b *testing.B) { benchRecursiveRun(b, nil) }

func benchRecursiveRun(b *testing.B, scope *obs.Scope) {
	g, h := benchNetwork(b, 1024)
	st := NewRunState()
	x0 := benchValues(g.N(), 6)
	x := make([]float64, len(x0))
	opt := recursiveDefaults(RecursiveOptions{Eps: 1e-2, State: st, Obs: scope})
	r := rng.New(7)
	run := func() *engine {
		copy(x, x0)
		e, _, _, err := st.recursive(g, h, x, opt, r)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	run() // binds the state and warms its route and flood cache
	var near, far uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := run()
		near += e.counter.Get(sim.CatNear) / 2
		far += e.res.FarExchanges
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(near), "ns/near")
	b.ReportMetric(ns/float64(far), "ns/far")
}

// Instrumented variants: the same steady-state work units with a live
// metrics registry scope attached. BENCH_engines.json pairs these with
// the bare rows to bound the observability overhead (DESIGN.md §8:
// ≤5%, still 0 allocs/op).

func BenchmarkAsyncSteadyTickInstrumented(b *testing.B) {
	benchAsyncSteadyTick(b, obs.NewRegistry().Scope("affine-async"))
}

func BenchmarkRecursiveFarExchangeInstrumented(b *testing.B) {
	g, h := benchNetwork(b, 2048)
	st := NewRunState()
	x := benchValues(g.N(), 4)
	if _, err := RunRecursive(g, h, x, RecursiveOptions{
		Eps:         1e-2,
		RecordEvery: 1 << 40,
		State:       st,
		Obs:         obs.NewRegistry().Scope("affine-hierarchical"),
	}, rng.New(5)); err != nil {
		b.Fatal(err)
	}
	e := &st.rec
	root := h.Root()
	m, _ := e.kidCount(root)
	if m < 2 {
		b.Fatal("root has fewer than two populated children")
	}
	ka, kb := e.kid(root, 0), e.kid(root, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.farExchange(ka, kb)
	}
}

func BenchmarkRecursiveRunInstrumented(b *testing.B) {
	benchRecursiveRun(b, obs.NewRegistry().Scope("affine-hierarchical"))
}
