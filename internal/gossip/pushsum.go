package gossip

import (
	"fmt"

	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// RunPushSum runs asynchronous push-sum averaging (Kempe–Dobra–Gehrke,
// FOCS 2003; surveyed as reference [8]/[9] in the paper's related work).
//
// Each node i maintains a pair (s_i, w_i), initialized to (x_i, 1); its
// estimate is s_i/w_i. On a clock tick the owner halves its pair and
// pushes one half to a uniformly random neighbour — a single one-way
// message per exchange, in contrast to the two-message pairwise
// averaging of RunBoyd. The invariants Σs = Σx(0) and Σw = n are
// preserved exactly, and every estimate converges to the true mean.
//
// Push-sum is included as a third baseline because the paper's related
// work leans on it; its transmission scaling on G(n, r) matches
// nearest-neighbour gossip (Õ(n²)) while halving the per-exchange cost.
//
// Fault model: a naive lossy push would permanently destroy mass, so
// faults use the mass-conservation bookkeeping of KDG §4 — a push that
// is not acknowledged is rolled back at the sender (equivalently, the
// sender retains the outbound half until an ack arrives and restores it
// on timeout). A lost push therefore pays its transmission but moves no
// mass: Σs and Σw over all nodes stay exact under arbitrary loss and
// churn, which is precisely the property the churn scenarios measure.
// Dead nodes freeze their pair and carry it back on revival.
func RunPushSum(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, error) {
	res, _, err := runPushSum(g, x, opt, r)
	return res, err
}

// pushSumRun is the per-run state of the push-sum engine (see boydRun).
type pushSumRun struct {
	g     *graph.Graph
	h     *sim.Harness
	pick  *rng.RNG
	s, w  []float64
	est   []float64
	ahead bool
	batch tickBatch
}

func newPushSumRun(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*pushSumRun, error) {
	st := stateOf(opt)
	// Push-sum needs no resync recovery: the mass-conservation invariants
	// already survive churn, so Options.Resync is ignored here.
	medium, spec, err := st.medium(opt, g, r)
	if err != nil {
		return nil, err
	}
	n := g.N()
	st.s = sim.GrowFloat(st.s, n)
	copy(st.s, x)
	st.w = sim.GrowFloat(st.w, n)
	for i := range st.w {
		st.w[i] = 1
	}
	// The error tracker runs on the estimates s/w, refreshed in place.
	st.est = sim.GrowFloat(st.est, n)
	copy(st.est, st.s)
	st.h.Reset(st.est, sim.HarnessConfig{
		Stop:        opt.Stop,
		RecordEvery: opt.RecordEvery,
		Medium:      medium,
		Points:      sim.SpatialPoints(spec, g.Points()),
		Tracer:      opt.Tracer,
		Obs:         opt.Obs,
		Timeline:    &st.tline,
	}, st.stream(&st.clockRNG, r, "clock"))
	e := &st.push
	*e = pushSumRun{
		g:     g,
		h:     &st.h,
		pick:  st.stream(&st.pickRNG, r, "pick"),
		s:     st.s,
		w:     st.w,
		est:   st.est,
		ahead: !spec.HasChurn(),
	}
	return e, nil
}

// run drives ticks until the stop rule fires, through the tick pipeline
// (see boydRun.run). Zero allocations in steady state.
func (e *pushSumRun) run() {
	h, b := e.h, &e.batch
	for i, k := 0, 0; !h.Done(); i++ {
		if i == k {
			i, k = 0, b.draw(h, e.g, e.pick, e.ahead)
			b.touch(e.s, k)
			b.touch(e.w, k)
			b.touch(e.est, k)
		}
		h.Advance()
		e.tick(b.owner[i], b.partner[i])
	}
}

// tick applies one clock tick of owner i, already counted: the owner
// halves its mass pair and pushes one half to a uniformly random
// neighbour. j is the partner drawn ahead (-1: none); without ahead
// draws it is drawn here, once liveness has had its turn.
func (e *pushSumRun) tick(i, j int32) {
	h := e.h
	if !h.Alive(i) {
		h.Sample()
		return
	}
	if !e.ahead {
		j = partner(e.g, i, e.pick)
	}
	if j >= 0 {
		if ok, paid := h.Medium.DeliverHop(channel.NewPacket(h.Points, i, j, 1, h.Clock.Ticks())); !ok {
			// Unacknowledged push: the sender rolls its halves back, so
			// no mass moves — only the transmission is paid.
			h.Counter.Add(sim.CatNear, paid)
			h.TraceLoss(i, j, paid)
		} else {
			e.s[i] /= 2
			e.w[i] /= 2
			e.s[j] += e.s[i]
			e.w[j] += e.w[i]
			// paid is the transport layer's extra airtime (retransmissions,
			// duplicates); zero without delay/arq.
			h.Counter.Add(sim.CatNear, 1+paid)
			h.Tracker.Set(i, e.s[i]/e.w[i])
			h.Tracker.Set(j, e.s[j]/e.w[j])
			h.Trace(trace.Event{Kind: trace.KindNear, Square: -1, NodeA: i, NodeB: j, Hops: 1 + paid})
		}
	}
	h.Sample()
}

// RunPushSumState is RunPushSum, additionally returning the final mass
// vectors (s, w) so callers can check the conservation invariants
// Σs = Σx(0) and Σw = n directly (see PushSumMass). The returned vectors
// are snapshots: safe to retain across later runs on a pooled state.
// RunPushSum skips the snapshots, so the sweep hot path pays nothing
// for them.
func RunPushSumState(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, []float64, []float64, error) {
	res, e, err := runPushSum(g, x, opt, r)
	if err != nil || e == nil {
		return res, nil, nil, err
	}
	return res, append([]float64(nil), e.s...), append([]float64(nil), e.w...), nil
}

// runPushSum executes the protocol and returns the live engine state (nil
// for the degenerate n = 0 run) alongside the result; callers that want
// the mass vectors snapshot them before the pooled state is reused.
func runPushSum(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, *pushSumRun, error) {
	if g.N() != len(x) {
		return nil, nil, fmt.Errorf("gossip: %d nodes but %d values", g.N(), len(x))
	}
	if err := sim.CheckFinite(x); err != nil {
		return nil, nil, err
	}
	if g.N() == 0 {
		return sim.EmptyResult("push-sum"), nil, nil
	}
	e, err := newPushSumRun(g, x, opt, r)
	if err != nil {
		return nil, nil, err
	}
	e.run()
	res := e.h.Finish("push-sum")
	// Expose the final estimates through x, matching the other runners'
	// contract that x converges toward the mean in place.
	copy(x, e.est)
	return res, e, nil
}

// PushSumMass returns the invariant totals Σs and Σw a push-sum run
// preserves; exposed for mass-conservation tests and the churn example.
func PushSumMass(s, w []float64) (sumS, sumW float64) {
	for _, v := range s {
		sumS += v
	}
	for _, v := range w {
		sumW += v
	}
	return sumS, sumW
}
