package gossip

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"geogossip/internal/metrics"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// instrumented bundles the observers a fully-wired run carries.
type instrumented struct {
	reg *obs.Registry
	buf bytes.Buffer
}

func (in *instrumented) options(engine string, opt Options) Options {
	opt.Tracer = &trace.JSONL{W: &in.buf}
	opt.Obs = in.reg.Scope(engine)
	return opt
}

// TestInstrumentedPooledBitIdentical is the observability variant of
// TestPooledStateBitIdentical: with a JSONL tracer AND a live metrics
// registry attached, a pooled RunState shared across engines and fault
// configs must still produce bit-identical results, byte-identical
// traces, and identical metric flushes to fresh state. This is the
// stats-reset hygiene check — any counter or trace state leaking across
// runs through the pool shows up here.
func TestInstrumentedPooledBitIdentical(t *testing.T) {
	g := generate(t, 400, 2.0, 900)
	stop := sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000}
	pooled := NewRunState()

	type runner struct {
		name string
		run  func(opt Options, r *rng.RNG) (*metrics.Result, error)
	}
	runners := []runner{
		{"boyd", func(opt Options, r *rng.RNG) (*metrics.Result, error) {
			return RunBoyd(g, randomValues(g.N(), 901), opt, r)
		}},
		{"geographic", func(opt Options, r *rng.RNG) (*metrics.Result, error) {
			return RunGeographic(g, randomValues(g.N(), 902), GeoOptions{Options: opt, Sampling: SamplingRejection}, r)
		}},
		{"push-sum", func(opt Options, r *rng.RNG) (*metrics.Result, error) {
			return RunPushSum(g, randomValues(g.N(), 903), opt, r)
		}},
	}

	for _, cfg := range stateConfigs {
		for _, rn := range runners {
			label := fmt.Sprintf("%s/%s", rn.name, cfg.name)
			base := Options{Stop: stop, Faults: parseSpec(t, cfg.faults), Resync: cfg.resync}

			freshObs := &instrumented{reg: obs.NewRegistry()}
			fresh, err := rn.run(freshObs.options(rn.name, base), rng.New(905))
			if err != nil {
				t.Fatalf("%s: fresh: %v", label, err)
			}

			pooledOpt := base
			pooledOpt.State = pooled
			pooledObs := &instrumented{reg: obs.NewRegistry()}
			got, err := rn.run(pooledObs.options(rn.name, pooledOpt), rng.New(905))
			if err != nil {
				t.Fatalf("%s: pooled: %v", label, err)
			}

			sameResult(t, label, fresh, got)
			if !bytes.Equal(freshObs.buf.Bytes(), pooledObs.buf.Bytes()) {
				t.Fatalf("%s: pooled trace diverged from fresh (%d vs %d bytes)",
					label, freshObs.buf.Len(), pooledObs.buf.Len())
			}
			if f, p := freshObs.reg.Flatten(), pooledObs.reg.Flatten(); !reflect.DeepEqual(f, p) {
				t.Fatalf("%s: pooled metrics diverged:\nfresh:  %v\npooled: %v", label, f, p)
			}
		}
	}
}

// TestInstrumentedRunMatchesBare: attaching a registry must not change
// the result at all — observation is passive.
func TestInstrumentedRunMatchesBare(t *testing.T) {
	g := generate(t, 400, 2.0, 930)
	opt := Options{
		Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000},
		Faults: parseSpec(t, "bernoulli:0.2"),
	}
	bare, err := RunBoyd(g, randomValues(g.N(), 931), opt, rng.New(932))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wired := opt
	wired.Obs = reg.Scope("boyd")
	instr, err := RunBoyd(g, randomValues(g.N(), 931), wired, rng.New(932))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "boyd/bernoulli", bare, instr)

	// And the flush agrees with the result counters.
	flat := reg.Flatten()
	checks := map[string]uint64{
		`geogossip_transmissions_total{category="near",engine="boyd"}`: instr.TransmissionsByCategory["near"],
		`geogossip_ticks_total{engine="boyd"}`:                         instr.Ticks,
		`geogossip_runs_total{engine="boyd"}`:                          1,
	}
	for k, want := range checks {
		if flat[k] != float64(want) {
			t.Errorf("%s = %v, want %d", k, flat[k], want)
		}
	}
}

// TestSteadyStateTicksAllocFreeInstrumented repeats the steady-state
// zero-alloc assertion with a live registry scope attached, on a lossy
// medium and on a delay+ARQ medium whose transport stages count into
// the run's tally: per-event counts are plain fields and the registry is
// touched only at run end, so instrumentation must not buy back the
// allocations the pooled states eliminated.
func TestSteadyStateTicksAllocFreeInstrumented(t *testing.T) {
	g := generate(t, 512, 1.8, 920)
	for _, faults := range []string{"bernoulli:0.2", "bernoulli:0.1+delay:exp/0.5+arq:3/1/2"} {
		reg := obs.NewRegistry()
		opt := Options{
			Stop:        sim.StopRule{MaxTicks: math.MaxUint64 >> 1},
			RecordEvery: math.MaxUint64 >> 1,
			Faults:      parseSpec(t, faults),
			State:       NewRunState(),
			Obs:         reg.Scope("boyd"),
		}

		x := randomValues(g.N(), 921)
		boyd, err := newBoydRun(g, x, opt, rng.New(922))
		if err != nil {
			t.Fatal(err)
		}
		boydBatch := oneBatch(boyd.h, boyd.run)
		runFor(boyd.h, boyd.run, 2000)
		if avg := testing.AllocsPerRun(500, boydBatch); avg != 0 {
			t.Errorf("boyd on %s: %v allocs per instrumented steady-state pipeline batch, want 0", faults, avg)
		}

		x = randomValues(g.N(), 923)
		geoOpt := GeoOptions{Options: opt, Sampling: SamplingRejection}
		geoOpt.State = NewRunState()
		geoOpt.Obs = reg.Scope("geographic")
		geo, err := newGeoRun(g, x, geoOpt.withDefaults(), rng.New(924))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			geo.step()
		}
		if avg := testing.AllocsPerRun(500, geo.step); avg != 0 {
			t.Errorf("geographic on %s: %v allocs per instrumented steady-state tick, want 0", faults, avg)
		}

		x = randomValues(g.N(), 925)
		pushOpt := opt
		pushOpt.State = NewRunState()
		pushOpt.Obs = reg.Scope("push-sum")
		push, err := newPushSumRun(g, x, pushOpt, rng.New(926))
		if err != nil {
			t.Fatal(err)
		}
		pushBatch := oneBatch(push.h, push.run)
		runFor(push.h, push.run, 2000)
		if avg := testing.AllocsPerRun(500, pushBatch); avg != 0 {
			t.Errorf("push-sum on %s: %v allocs per instrumented steady-state pipeline batch, want 0", faults, avg)
		}
	}
}
