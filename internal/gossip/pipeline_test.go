package gossip

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// step is the per-tick reference loop body for boyd: the serial body
// the tick pipeline replaced, one tick at a time — draw and count the
// owner, check liveness, resync, draw the partner, deliver, average. It
// attaches endpoint positions to every packet, whatever the medium, as
// the serial loop did.
func (e *boydRun) step() {
	h := e.h
	s := h.Tick()
	if !h.Alive(s) {
		e.resync.markDead(s, h)
		h.Sample()
		return
	}
	e.resync.onTick(s, e.g, h, e.x, e.pick)
	deg := e.g.Degree(s)
	if deg > 0 {
		v := e.g.Neighbors(s)[e.pick.IntN(deg)]
		if ok, paid := h.Medium.DeliverHop(channel.NewPacket(e.g.Points(), s, v, 1, h.Clock.Ticks())); !ok {
			h.Counter.Add(sim.CatNear, paid)
			h.TraceLoss(s, v, paid)
		} else {
			avg := (e.x[s] + e.x[v]) / 2
			h.Tracker.Set(s, avg)
			h.Tracker.Set(v, avg)
			h.Counter.Add(sim.CatNear, 2+paid)
			h.Trace(trace.KindNear, -1, s, v, 2+paid)
		}
	}
	h.Sample()
}

// step is the per-tick reference loop body for push-sum (see
// boydRun.step).
func (e *pushSumRun) step() {
	h := e.h
	i := h.Tick()
	if !h.Alive(i) {
		h.Sample()
		return
	}
	deg := e.g.Degree(i)
	if deg > 0 {
		j := e.g.Neighbors(i)[e.pick.IntN(deg)]
		if ok, paid := h.Medium.DeliverHop(channel.NewPacket(e.g.Points(), i, j, 1, h.Clock.Ticks())); !ok {
			h.Counter.Add(sim.CatNear, paid)
			h.TraceLoss(i, j, paid)
		} else {
			e.s[i] /= 2
			e.w[i] /= 2
			e.s[j] += e.s[i]
			e.w[j] += e.w[i]
			h.Counter.Add(sim.CatNear, 1+paid)
			h.Tracker.Set(i, e.s[i]/e.w[i])
			h.Tracker.Set(j, e.s[j]/e.w[j])
			h.Trace(trace.KindNear, -1, i, j, 1+paid)
		}
	}
	h.Sample()
}

// referenceBoyd is RunBoyd driven by the per-tick reference loop.
func referenceBoyd(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, error) {
	e, err := newBoydRun(g, x, opt, r)
	if err != nil {
		return nil, err
	}
	for !e.h.Done() {
		e.step()
	}
	return e.h.Finish("boyd", &metrics.Result{Resyncs: e.resync.count}), nil
}

// referencePushSum is RunPushSumState driven by the per-tick reference
// loop.
func referencePushSum(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, []float64, []float64, error) {
	e, err := newPushSumRun(g, x, opt, r)
	if err != nil {
		return nil, nil, nil, err
	}
	for !e.h.Done() {
		e.step()
	}
	res := e.h.Finish("push-sum", &metrics.Result{})
	copy(x, e.est)
	return res, append([]float64(nil), e.s...), append([]float64(nil), e.w...), nil
}

// runFor drives exactly k more ticks through an engine's shipping tick
// loop by extending the harness's tick budget.
func runFor(h *sim.Harness, run func(), k uint64) {
	h.Stop.MaxTicks = h.Clock.Ticks() + k
	run()
}

// oneBatch returns a function that runs one full pipeline batch.
func oneBatch(h *sim.Harness, run func()) func() {
	return func() { runFor(h, run, pipeDepth) }
}

// pipelineMedia is the identity suite's medium matrix: every loss
// process, both spatial components (which read packet positions), the
// transport chain, and churn with and without Recover (where partners
// are drawn at apply time).
var pipelineMedia = []struct {
	name, faults string
	resync       bool
}{
	{name: "perfect"},
	{name: "bernoulli", faults: "bernoulli:0.1"},
	{name: "ge", faults: "ge:0.05/0.2/0.01/0.6"},
	{name: "jam", faults: "jam:0.5/0.5/0.25/0.9"},
	{name: "cut", faults: "cut:1/0/0.5/0/100000"},
	{name: "delay-arq", faults: "delay:exp/0.5+arq:3/1/2"},
	{name: "churn", faults: "churn:4000/1000"},
	{name: "churn-resync", faults: "churn:4000/1000", resync: true},
}

// pipelineStops covers every way a run can end relative to a batch.
var pipelineStops = []struct {
	name  string
	stop  sim.StopRule
	every uint64
}{
	{"target", sim.StopRule{TargetErr: 5e-2, MaxTicks: 2_000_000}, 0},
	{"cap-not-multiple", sim.StopRule{MaxTicks: 40*pipeDepth + 13}, 17},
	{"cap-below-depth", sim.StopRule{MaxTicks: pipeDepth/2 + 1}, 3},
	{"cap-one", sim.StopRule{MaxTicks: 1}, 0},
}

// samePipelined asserts the pipelined run reproduced the reference run
// field for field, bit for bit, with the same trace bytes and metrics.
func samePipelined(t *testing.T, label string, ref, got *metrics.Result, refObs, gotObs *instrumented) {
	t.Helper()
	sameResult(t, label, ref, got)
	if math.Float64bits(ref.FinalErr) != math.Float64bits(got.FinalErr) {
		t.Fatalf("%s: FinalErr bits differ: %v vs %v", label, ref.FinalErr, got.FinalErr)
	}
	if math.Float64bits(ref.SimSeconds) != math.Float64bits(got.SimSeconds) {
		t.Fatalf("%s: SimSeconds differ: %v vs %v", label, ref.SimSeconds, got.SimSeconds)
	}
	if !bytes.Equal(refObs.buf.Bytes(), gotObs.buf.Bytes()) {
		t.Fatalf("%s: trace streams differ (%d vs %d bytes)", label, refObs.buf.Len(), gotObs.buf.Len())
	}
	if r, g := refObs.reg.Flatten(), gotObs.reg.Flatten(); !reflect.DeepEqual(r, g) {
		t.Fatalf("%s: metric flushes differ:\nreference: %v\npipelined: %v", label, r, g)
	}
}

func sameVector(t *testing.T, label, what string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %s lengths differ: %d vs %d", label, what, len(ref), len(got))
	}
	for i := range ref {
		if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: %s diverged at %d: %v vs %v", label, what, i, ref[i], got[i])
		}
	}
}

// TestPipelineMatchesPerTickReference runs boyd and push-sum through the
// shipping tick pipeline and through the per-tick reference loop over
// every medium × stop case, with a tracer and a live metrics scope
// attached and one pooled state shared by every run, and requires
// identical results, final values, mass vectors, traces and metrics.
func TestPipelineMatchesPerTickReference(t *testing.T) {
	g := generate(t, 200, 2.0, 940)
	pooled := NewRunState()
	midBatch := 0
	for _, m := range pipelineMedia {
		for _, sc := range pipelineStops {
			base := Options{
				Stop:        sc.stop,
				RecordEvery: sc.every,
				Faults:      parseSpec(t, m.faults),
				Recover:     m.resync,
				State:       pooled,
			}
			label := fmt.Sprintf("boyd/%s/%s", m.name, sc.name)
			xRef, xGot := randomValues(g.N(), 941), randomValues(g.N(), 941)
			refObs, gotObs := &instrumented{reg: obs.NewRegistry()}, &instrumented{reg: obs.NewRegistry()}
			ref, err := referenceBoyd(g, xRef, refObs.options("boyd", base), rng.New(942))
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, err := RunBoyd(g, xGot, gotObs.options("boyd", base), rng.New(942))
			if err != nil {
				t.Fatalf("%s: pipelined: %v", label, err)
			}
			samePipelined(t, label, ref, got, refObs, gotObs)
			sameVector(t, label, "x", xRef, xGot)
			if got.Converged && got.Ticks%pipeDepth != 0 {
				midBatch++
			}

			label = fmt.Sprintf("push-sum/%s/%s", m.name, sc.name)
			xRef, xGot = randomValues(g.N(), 943), randomValues(g.N(), 943)
			refObs, gotObs = &instrumented{reg: obs.NewRegistry()}, &instrumented{reg: obs.NewRegistry()}
			ref, sRef, wRef, err := referencePushSum(g, xRef, refObs.options("push-sum", base), rng.New(944))
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			got, sGot, wGot, err := RunPushSumState(g, xGot, gotObs.options("push-sum", base), rng.New(944))
			if err != nil {
				t.Fatalf("%s: pipelined: %v", label, err)
			}
			samePipelined(t, label, ref, got, refObs, gotObs)
			sameVector(t, label, "x", xRef, xGot)
			sameVector(t, label, "s", sRef, sGot)
			sameVector(t, label, "w", wRef, wGot)
			if got.Converged && got.Ticks%pipeDepth != 0 {
				midBatch++
			}
		}
	}
	if midBatch == 0 {
		t.Fatal("no run reached its target mid-batch; the stop-mid-batch case went untested")
	}
}
