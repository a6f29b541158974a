// Package gossip implements three baseline averaging algorithms the
// paper compares against:
//
//   - Boyd et al. (INFOCOM 2005) randomized nearest-neighbour gossip —
//     Õ(n²) transmissions on G(n, r): RunBoyd.
//   - Dimakis–Sarwate–Wainwright (IPSN 2006) geographic gossip —
//     Õ(n^1.5) transmissions: RunGeographic, with either faithful
//     rejection sampling over random positions or idealized uniform node
//     sampling.
//   - Kempe–Dobra–Gehrke (FOCS 2003) push-sum: RunPushSum.
//
// All use the shared run harness from internal/sim (clock model,
// transmission accounting, error tracking) and route every data-packet
// delivery through internal/channel, so costs and fault behaviour are
// comparable with the paper's algorithm in internal/core.
package gossip

import (
	"fmt"

	"geogossip/internal/channel"
	"geogossip/internal/geo"
	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// Options configures a baseline run: the engines' one options record
// over this package's pooled run state. The baselines read Stop,
// RecordEvery, Faults, Recover (boyd and geographic), Sampling
// (geographic), State, Tracer and Obs. Under Recover, a node whose clock
// fires after it revived from a crash first pulls the current estimate
// from a random live neighbour (2 transmissions), so it rejoins near
// the working consensus instead of dragging its stale value back in;
// exact sum preservation is traded for convergence under churn.
type Options = sim.Options[RunState]

// The run's radio channel is built by RunState.medium over the engine's
// deterministic streams: losses draw from "loss", churn schedules from
// "churn". The graph supplies the spatial and degree context
// geometry-aware fault models bind to; rep-targeted specs fail there (no
// hierarchy).

// boydRun is the per-run state of the boyd engine, factored out so the
// tick loop (run) can be driven and alloc-asserted in isolation and the
// whole bundle can live inside a pooled RunState.
type boydRun struct {
	g      *graph.Graph
	x      []float64
	h      *sim.Harness
	pick   *rng.RNG
	resync resyncState
	// ahead draws partners in the pipeline's first phase: set when no
	// node can go down (see tickBatch.draw).
	ahead bool
	batch tickBatch
}

func newBoydRun(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*boydRun, error) {
	st := stateOf(opt)
	medium, spec, err := st.medium(opt, g, r)
	if err != nil {
		return nil, err
	}
	st.h.Reset(x, sim.HarnessConfig{
		Stop:        opt.Stop,
		RecordEvery: opt.RecordEvery,
		Medium:      medium,
		Points:      sim.SpatialPoints(spec, g.Points()),
		Tracer:      opt.Tracer,
		Obs:         opt.Obs,
		Timeline:    &st.tline,
	}, st.stream(&st.clockRNG, r, "clock"))
	e := &st.boyd
	*e = boydRun{
		g:     g,
		x:     x,
		h:     &st.h,
		pick:  st.stream(&st.pickRNG, r, "pick"),
		ahead: !spec.HasChurn(),
	}
	e.resync.reset(opt, st, g.N())
	return e, nil
}

// run drives ticks until the stop rule fires, through the two-phase
// tick pipeline (DESIGN.md §7): draw a batch of owners (and, without
// churn, partners) and read their state, then apply the batch in tick
// order, checking the stop rule before every tick. Draws left over
// when the run stops are discarded. Zero allocations in steady state.
func (e *boydRun) run() {
	h, b := e.h, &e.batch
	for i, k := 0, 0; !h.Done(); i++ {
		if i == k {
			i, k = 0, b.draw(h, e.g, e.pick, e.ahead)
			b.touch(e.x, k)
		}
		h.Advance()
		e.tick(b.owner[i], b.partner[i])
	}
}

// tick applies one clock tick of owner s, already counted: the owner
// averages with a uniformly random graph neighbour (2 transmissions).
// v is the partner drawn ahead (-1: none); without ahead draws it is
// drawn here, once liveness and resync have had their turn.
func (e *boydRun) tick(s, v int32) {
	h := e.h
	if !h.Alive(s) {
		e.resync.markDead(s, h)
		h.Sample()
		return
	}
	e.resync.onTick(s, e.g, h, e.x, e.pick)
	if !e.ahead {
		v = partner(e.g, s, e.pick)
	}
	if v >= 0 {
		// The perfect medium's verdict is read inline (DESIGN.md §7).
		ok, paid := true, 0
		if !h.Medium.Perfect() {
			ok, paid = h.Medium.DeliverHop(channel.NewPacket(h.Points, s, v, 1, h.Clock.Ticks()))
		}
		if !ok {
			// The outbound value was transmitted but lost; no update.
			h.Counter.Add(sim.CatNear, paid)
			h.TraceLoss(s, v, paid)
		} else {
			avg := (e.x[s] + e.x[v]) / 2
			if t := h.Tracker; t.PairDue() {
				t.SetPair(s, v, avg, avg)
			} else {
				t.SetPairClear(s, v, avg, avg)
			}
			// paid is the transport layer's extra airtime (retransmissions,
			// duplicates); zero without delay/arq, keeping the charge — and
			// the event — byte-identical to the transport-free run.
			h.Counter.Add(sim.CatNear, 2+paid)
			h.Trace(trace.KindNear, -1, s, v, 2+paid)
		}
	}
	h.Sample()
}

// RunBoyd runs randomized nearest-neighbour gossip: on each clock tick
// the owner averages with a uniformly random graph neighbour (2
// transmissions per exchange). x is mutated in place toward consensus.
func RunBoyd(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, error) {
	if g.N() != len(x) {
		return nil, fmt.Errorf("gossip: %d nodes but %d values", g.N(), len(x))
	}
	if err := sim.CheckFinite(x); err != nil {
		return nil, err
	}
	if g.N() == 0 {
		return sim.EmptyResult("boyd"), nil
	}
	e, err := newBoydRun(g, x, opt, r)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.h.Finish("boyd", &metrics.Result{Resyncs: e.resync.count}), nil
}

// resyncState implements restart-from-neighbor recovery for the
// clock-driven baselines: it remembers which nodes were observed dead
// and, on the first tick after a node revives, pulls the current
// estimate from a random live neighbour.
type resyncState struct {
	wasDead []bool // nil when resync is disabled
	count   uint64
}

// reset re-initializes the tracker for a new run, reusing the state's
// flag slice.
func (rs *resyncState) reset(opt Options, st *RunState, n int) {
	rs.count = 0
	rs.wasDead = nil
	if opt.Recover && opt.Faults.HasChurn() && opt.Faults.Churn.MeanDown > 0 {
		st.wasDead = sim.GrowBool(st.wasDead, n)
		rs.wasDead = st.wasDead
	}
}

func (rs *resyncState) markDead(s int32, h *sim.Harness) {
	if rs.wasDead != nil && !rs.wasDead[s] {
		rs.wasDead[s] = true
		h.Tally.Churn(false)
		h.Trace(trace.KindChurn, -1, s, 0, 0)
	}
}

// onTick performs the resync exchange when s is a freshly revived node.
// It inlines, so a tick with resync off pays one nil test for it.
func (rs *resyncState) onTick(s int32, g *graph.Graph, h *sim.Harness, x []float64, pick *rng.RNG) {
	if rs.wasDead != nil && rs.wasDead[s] {
		rs.revive(s, g, h, x, pick)
	}
}

// revive is the resync exchange of onTick: x[s] adopts a random live
// neighbour's value at a cost of 2 transmissions (request + response).
// A lost draw (dead neighbour) just skips — the node retries on its
// next tick.
func (rs *resyncState) revive(s int32, g *graph.Graph, h *sim.Harness, x []float64, pick *rng.RNG) {
	deg := g.Degree(s)
	if deg == 0 {
		rs.wasDead[s] = false
		h.Tally.Churn(true)
		h.Trace(trace.KindChurn, -1, s, 1, 0)
		return
	}
	v := g.Neighbors(s)[pick.IntN(deg)]
	if !h.Alive(v) {
		return // retry at the next tick
	}
	rs.wasDead[s] = false
	h.Tracker.Set(s, x[v])
	h.Counter.Add(sim.CatControl, 2)
	rs.count++
	h.Tally.Churn(true)
	h.Tally.Resync()
	h.Trace(trace.KindChurn, -1, s, 1, 0)
	h.Trace(trace.KindResync, -1, s, v, 2)
}

// GeoOptions configures geographic gossip. It adds no field to Options;
// it is kept only because the benchmark (bench/layers.go) names it, and
// goes with the benchmark's next revision (ROADMAP item 6).
type GeoOptions struct {
	Options
}

// TargetSampler draws long-range partners for a source node, charging the
// routing cost the mechanism incurs.
type TargetSampler struct {
	g           *graph.Graph
	rt          *routing.Router
	mode        sim.Sampling
	maxAttempts int
	// accept[i] is node i's rejection-sampling acceptance probability
	// min(1, κ/(n·A_i)), where A_i is its locally computed Voronoi cell
	// area. Nearest-to-uniform-point targeting samples node i with
	// probability A_i; the acceptance clamps the product at κ/n, which
	// flattens the distribution toward uniform (exactly uniform on the
	// nodes with A_i ≥ κ/n).
	accept []float64
}

// rejectionKappa trades uniformity against acceptance rate: acceptance
// clamps the sampled mass per node at κ/n. 0.5 keeps the expected number
// of attempts near 2 while removing most of the Voronoi-area spread.
const rejectionKappa = 0.5

// defaultMaxAttempts caps the rejection re-targets of one geographic
// exchange, and is what a sampler built with a non-positive cap uses.
const defaultMaxAttempts = 10

// NewTargetSampler builds a sampler over g with a private uncached
// routing core (sampled targets are random, so memoization cannot hit;
// DESIGN.md §6).
func NewTargetSampler(g *graph.Graph, mode sim.Sampling, maxAttempts int) *TargetSampler {
	return NewTargetSamplerRouter(routing.NewRouter(g, routing.NoCache()), mode, maxAttempts)
}

// NewTargetSamplerRouter builds a sampler that routes through rt, so a
// run's sampler and return routes share one memoized routing core.
func NewTargetSamplerRouter(rt *routing.Router, mode sim.Sampling, maxAttempts int) *TargetSampler {
	ts := &TargetSampler{}
	var accept []float64
	g := rt.Graph()
	if mode == sim.SamplingRejection && g.N() > 0 {
		accept = rejectionAccept(g, make([]float64, g.N()))
	}
	ts.reset(rt, mode, maxAttempts, accept)
	return ts
}

// rejectionAccept fills buf (length g.N()) with the per-node acceptance
// probabilities min(1, κ/(n·A_i)) over the graph's cached Voronoi areas
// and returns it.
func rejectionAccept(g *graph.Graph, buf []float64) []float64 {
	targetArea := rejectionKappa / float64(g.N())
	for i, a := range g.VoronoiAreas() {
		if a <= targetArea {
			buf[i] = 1
		} else {
			buf[i] = targetArea / a
		}
	}
	return buf
}

// reset re-initializes a (possibly pooled) sampler in place. accept is
// the rejection acceptance table (nil for uniform-node sampling),
// computed by rejectionAccept and owned by the caller.
func (ts *TargetSampler) reset(rt *routing.Router, mode sim.Sampling, maxAttempts int, accept []float64) {
	if maxAttempts <= 0 {
		maxAttempts = defaultMaxAttempts
	}
	*ts = TargetSampler{
		g:           rt.Graph(),
		rt:          rt,
		mode:        mode,
		maxAttempts: maxAttempts,
		accept:      accept,
	}
}

// SampleFrom routes a packet from src to a sampled partner and returns the
// partner, the hops spent getting the packet there, and the number of
// rejection attempts used (1 for uniform-node sampling). The partner may
// equal src in degenerate geometries; callers typically skip such
// exchanges.
func (ts *TargetSampler) SampleFrom(src int32, r *rng.RNG) (target int32, hops, attempts int) {
	switch ts.mode {
	case sim.SamplingUniformNode:
		if ts.g.N() < 2 {
			return src, 0, 1
		}
		t := int32(r.IntNExcept(ts.g.N(), int(src)))
		res := ts.rt.RouteToNode(src, t, routing.RecoveryBFS)
		if !res.Delivered {
			// Disconnected target: stay at the stall node.
			return res.Last, res.Hops, 1
		}
		return t, res.Hops, 1
	case sim.SamplingRejection:
		cur := src
		for attempts = 1; ; attempts++ {
			y := geo.Pt(r.Float64(), r.Float64())
			res := ts.rt.RouteToPoint(cur, y)
			hops += res.Hops
			cur = res.Last
			if attempts >= ts.maxAttempts {
				return cur, hops, attempts
			}
			if r.Bernoulli(ts.accept[cur]) {
				return cur, hops, attempts
			}
		}
	default:
		panic(fmt.Sprintf("gossip: unknown sampling mode %d", ts.mode))
	}
}

// geoRun is the per-run state of the geographic engine (see boydRun).
type geoRun struct {
	g       *graph.Graph
	x       []float64
	h       *sim.Harness
	sampler *TargetSampler
	sample  *rng.RNG
	resync  resyncState
}

func newGeoRun(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*geoRun, error) {
	st := stateOf(opt)
	medium, spec, err := st.medium(opt, g, r)
	if err != nil {
		return nil, err
	}
	// Geographic routes target uniformly random partners: memoizing them
	// would grow toward n² entries with near-zero reuse (DESIGN.md §6),
	// so every run takes the uncached (still zero-alloc) fast path — one
	// state-owned disabled cache, reused across runs.
	if st.noCache == nil {
		st.noCache = routing.NoCache()
	}
	st.router.Reset(g, st.noCache)
	st.h.Reset(x, sim.HarnessConfig{
		Stop:        opt.Stop,
		RecordEvery: opt.RecordEvery,
		Medium:      medium,
		Points:      sim.SpatialPoints(spec, g.Points()),
		Router:      &st.router,
		Tracer:      opt.Tracer,
		Obs:         opt.Obs,
		Timeline:    &st.tline,
	}, st.stream(&st.clockRNG, r, "clock"))
	var accept []float64
	if opt.Sampling == sim.SamplingRejection {
		accept = st.accept(g)
	}
	st.sampler.reset(&st.router, opt.Sampling, defaultMaxAttempts, accept)
	e := &st.geo
	*e = geoRun{
		g:       g,
		x:       x,
		h:       &st.h,
		sampler: &st.sampler,
		sample:  st.stream(&st.sampleRNG, r, "sample"),
	}
	e.resync.reset(opt, st, g.N())
	return e, nil
}

// step executes one clock tick: the owner samples a long-range partner,
// the pair averages, and the new value is routed back. Zero allocations
// in steady state.
func (e *geoRun) step() {
	h := e.h
	s := h.Tick()
	if !h.Alive(s) {
		e.resync.markDead(s, h)
		h.Sample()
		return
	}
	e.resync.onTick(s, e.g, h, e.x, e.sample)
	target, hops, _ := e.sampler.SampleFrom(s, e.sample)
	if ok, paid := h.Medium.DeliverRoute(channel.NewPacket(h.Points, s, target, hops, h.Clock.Ticks())); !ok {
		// The outbound packet died partway along its route; charge the
		// partial cost.
		h.Counter.Add(sim.CatFar, paid)
		h.TraceLoss(s, target, paid)
	} else {
		// paid on success is the transport layer's extra airtime
		// (retransmissions, duplicates); zero without delay/arq.
		h.Counter.Add(sim.CatFar, hops+paid)
		// The exchange's one far event carries the total charge of its
		// delivered legs; lost legs are accounted by their loss events.
		total := hops + paid
		if target != s {
			back := h.Router.RouteToNode(target, s, routing.RecoveryBFS)
			if ok, paid := h.Medium.DeliverRoute(channel.NewPacket(h.Points, target, s, back.Hops, h.Clock.Ticks())); !ok {
				// Return leg lost: partial cost, no commit.
				h.Counter.Add(sim.CatFar, paid)
				h.TraceLoss(target, s, paid)
			} else {
				h.Counter.Add(sim.CatFar, back.Hops+paid)
				total += back.Hops + paid
				// Commit the pair atomically only when the round trip
				// completed, so a failed return route (possible only
				// on a disconnected instance) cannot break sum
				// preservation.
				if back.Delivered {
					avg := (e.x[s] + e.x[target]) / 2
					h.Tracker.SetPair(target, s, avg, avg)
				}
			}
		}
		h.Tally.FarExchange(total)
		h.Trace(trace.KindFar, -1, s, target, total)
	}
	h.Sample()
}

// RunGeographic runs Dimakis-style geographic gossip: on each tick the
// owner samples a long-range partner, the pair averages, and the new
// value is routed back. x is mutated in place.
func RunGeographic(g *graph.Graph, x []float64, geo GeoOptions, r *rng.RNG) (*metrics.Result, error) {
	if g.N() != len(x) {
		return nil, fmt.Errorf("gossip: %d nodes but %d values", g.N(), len(x))
	}
	if err := sim.CheckFinite(x); err != nil {
		return nil, err
	}
	opt := geo.Options
	if opt.Sampling == 0 {
		opt.Sampling = sim.SamplingRejection
	}
	name := "geographic-" + opt.Sampling.String()
	if g.N() == 0 {
		return sim.EmptyResult(name), nil
	}
	e, err := newGeoRun(g, x, opt, r)
	if err != nil {
		return nil, err
	}
	for !e.h.Done() {
		e.step()
	}
	return e.h.Finish(name, &metrics.Result{Resyncs: e.resync.count}), nil
}
