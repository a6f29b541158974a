package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"geogossip/internal/hier"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// TestInstrumentedPooledBitIdenticalCore is the observability variant of
// the pooled-vs-fresh suite: with a JSONL tracer AND a live metrics
// registry attached, a RunState shared across both hierarchy engines
// and the fault matrix must still produce bit-identical results,
// byte-identical traces, and identical metric flushes to fresh state.
func TestInstrumentedPooledBitIdenticalCore(t *testing.T) {
	f := newFixture(t, 400, 2.0, 930, hier.Config{})
	pooled := NewRunState()
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000}

	for _, cfg := range coreStateConfigs {
		// Recursive engine.
		rOpt := RecursiveOptions{Eps: 5e-2, Faults: coreSpec(t, cfg.faults), Recover: cfg.recover}
		var freshBuf, pooledBuf bytes.Buffer
		freshReg, pooledReg := obs.NewRegistry(), obs.NewRegistry()

		rOpt.Tracer = &trace.JSONL{W: &freshBuf}
		rOpt.Obs = freshReg.Scope("affine")
		fresh, err := RunRecursive(f.g, f.h, randomValues(f.g.N(), 931), rOpt, rng.New(932))
		if err != nil {
			t.Fatalf("recursive/%s: fresh: %v", cfg.name, err)
		}
		rOpt.State = pooled
		rOpt.Tracer = &trace.JSONL{W: &pooledBuf}
		rOpt.Obs = pooledReg.Scope("affine")
		got, err := RunRecursive(f.g, f.h, randomValues(f.g.N(), 931), rOpt, rng.New(932))
		if err != nil {
			t.Fatalf("recursive/%s: pooled: %v", cfg.name, err)
		}
		if fresh.Transmissions != got.Transmissions || fresh.FinalErr != got.FinalErr ||
			fresh.FarExchanges != got.FarExchanges || fresh.Reelections != got.Reelections {
			t.Fatalf("recursive/%s: pooled run diverged:\nfresh:  %+v\npooled: %+v", cfg.name, fresh, got)
		}
		if !bytes.Equal(freshBuf.Bytes(), pooledBuf.Bytes()) {
			t.Fatalf("recursive/%s: pooled trace diverged (%d vs %d bytes)",
				cfg.name, freshBuf.Len(), pooledBuf.Len())
		}
		if fl, pl := freshReg.Flatten(), pooledReg.Flatten(); !reflect.DeepEqual(fl, pl) {
			t.Fatalf("recursive/%s: pooled metrics diverged:\nfresh:  %v\npooled: %v", cfg.name, fl, pl)
		}

		// Async engine on the same pooled state.
		aOpt := AsyncOptions{Eps: 1e-2, Faults: coreSpec(t, cfg.faults), Recover: cfg.recover, Stop: stop}
		freshBuf.Reset()
		pooledBuf.Reset()
		freshReg, pooledReg = obs.NewRegistry(), obs.NewRegistry()

		aOpt.Tracer = &trace.JSONL{W: &freshBuf}
		aOpt.Obs = freshReg.Scope("async")
		freshA, err := RunAsync(f.g, f.h, randomValues(f.g.N(), 941), aOpt, rng.New(942))
		if err != nil {
			t.Fatalf("async/%s: fresh: %v", cfg.name, err)
		}
		aOpt.State = pooled
		aOpt.Tracer = &trace.JSONL{W: &pooledBuf}
		aOpt.Obs = pooledReg.Scope("async")
		gotA, err := RunAsync(f.g, f.h, randomValues(f.g.N(), 941), aOpt, rng.New(942))
		if err != nil {
			t.Fatalf("async/%s: pooled: %v", cfg.name, err)
		}
		if freshA.Transmissions != gotA.Transmissions || freshA.FinalErr != gotA.FinalErr ||
			freshA.Ticks != gotA.Ticks || freshA.Resyncs != gotA.Resyncs ||
			freshA.Reelections != gotA.Reelections {
			t.Fatalf("async/%s: pooled run diverged:\nfresh:  %+v\npooled: %+v", cfg.name, freshA, gotA)
		}
		if !bytes.Equal(freshBuf.Bytes(), pooledBuf.Bytes()) {
			t.Fatalf("async/%s: pooled trace diverged (%d vs %d bytes)",
				cfg.name, freshBuf.Len(), pooledBuf.Len())
		}
		if fl, pl := freshReg.Flatten(), pooledReg.Flatten(); !reflect.DeepEqual(fl, pl) {
			t.Fatalf("async/%s: pooled metrics diverged:\nfresh:  %v\npooled: %v", cfg.name, fl, pl)
		}

		if err := f.h.Validate(); err != nil {
			t.Fatalf("%s: shared hierarchy mutated: %v", cfg.name, err)
		}
	}
}

// TestInstrumentedTicksAllocFreeCore repeats the steady-state zero-alloc
// assertions with a live registry scope attached to both hierarchy
// engines, on the perfect medium and on a delay+ARQ medium whose
// transport stages count into the run's tally: per-event counts are
// plain fields, flushed to the registry only at run end.
func TestInstrumentedTicksAllocFreeCore(t *testing.T) {
	for _, faults := range []string{"", "bernoulli:0.1+delay:exp/0.5+arq:3/1/2"} {
		reg := obs.NewRegistry()
		spec := coreSpec(t, faults)

		f := newFixture(t, 512, 1.8, 990, hier.Config{})
		st := NewRunState()
		if _, err := RunAsync(f.g, f.h, randomValues(f.g.N(), 991), AsyncOptions{
			Eps:         1e-2,
			RecordEvery: math.MaxUint64 >> 1,
			Stop:        sim.StopRule{MaxTicks: 200_000},
			Faults:      spec,
			State:       st,
			Obs:         reg.Scope("async"),
		}, rng.New(992)); err != nil {
			t.Fatal(err)
		}
		e := &st.async
		for i := 0; i < 2000; i++ {
			e.step()
		}
		if avg := testing.AllocsPerRun(500, e.step); avg != 0 {
			t.Errorf("async on %q: %v allocs per instrumented steady-state tick, want 0", faults, avg)
		}

		f2 := newFixture(t, 512, 1.8, 995, hier.Config{})
		st2 := NewRunState()
		if _, err := RunRecursive(f2.g, f2.h, randomValues(f2.g.N(), 996), RecursiveOptions{
			Eps:         1e-2,
			RecordEvery: 1 << 40,
			Faults:      spec,
			State:       st2,
			Obs:         reg.Scope("affine"),
		}, rng.New(997)); err != nil {
			t.Fatal(err)
		}
		re := &st2.rec
		root := f2.h.Root()
		m, _ := re.kidCount(root)
		if m < 2 {
			t.Skip("root has fewer than two populated children")
		}
		a, b := re.kid(root, 0), re.kid(root, 1)
		warm := func() { re.farExchange(a, b) }
		for i := 0; i < 100; i++ {
			warm()
		}
		if avg := testing.AllocsPerRun(500, warm); avg != 0 {
			t.Errorf("recursive far exchange on %q: %v allocs instrumented, want 0", faults, avg)
		}
	}
}
