package gossip

import (
	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
)

// RunState is the reusable per-run mutable state of the baseline engines
// (boyd, geographic, push-sum): the simulation harness, the radio-channel
// pool, the named RNG streams, and every per-node scratch slice a run
// needs. A fresh zero RunState is valid; passing one through
// Options.State and reusing it across runs turns the per-run state cost
// into O(1) allocations per (state, network) pair — the sweep engine
// keeps one per worker. Reuse is draw- and result-identical to fresh
// state by construction (reseeded streams, memclr'd slices, pooled
// channels); the bit-identity tests assert it engine by engine.
//
// A RunState serves one run at a time (single-goroutine, like the
// engines). Results returned from runs on a pooled state are safe to
// retain: everything that escapes into a Result is snapshotted at Finish.
type RunState struct {
	h  sim.Harness
	ch channel.Pool
	// tline is the transport clock (DESIGN.md §12), reset per run
	// before the medium is built so its delay and ARQ stages can add
	// latency to it. Inactive (and cost-free) without transport components in
	// the fault spec.
	tline channel.Timeline

	// Named streams, reseeded per run via StreamInto.
	clockRNG, pickRNG, sampleRNG, lossRNG, churnRNG *rng.RNG

	// wasDead is the resync tracker's per-node flag slice.
	wasDead []bool

	// Geographic: the routing core and partner sampler. The rejection
	// acceptance table is a pure function of the graph, cached per bound
	// graph like the route scratch.
	router routing.Router
	// noCache is the state-owned disabled cache every geographic run
	// routes through (DESIGN.md §6), reused across runs.
	noCache *routing.Cache
	sampler TargetSampler
	acceptG *graph.Graph
	acceptP []float64
	boyd    boydRun
	geo     geoRun
	push    pushSumRun

	// Push-sum mass vectors and the estimate slice the tracker runs on.
	s, w, est []float64
}

// NewRunState returns an empty reusable run state.
func NewRunState() *RunState { return &RunState{} }

// ChannelBuilds reports how many radio channels this state's pool has
// served in place of fresh allocations (see channel.Pool.Builds).
func (st *RunState) ChannelBuilds() uint64 {
	if st == nil {
		return 0
	}
	return st.ch.Builds()
}

// stateOf returns the run state to use: the caller-supplied pooled one,
// or a fresh private state.
func stateOf(opt Options) *RunState {
	if opt.State != nil {
		return opt.State
	}
	return &RunState{}
}

// stream rebinds one named stream for a new run.
func (st *RunState) stream(slot **rng.RNG, r *rng.RNG, name string) *rng.RNG {
	*slot = r.StreamInto(*slot, name)
	return *slot
}

// medium builds the run's radio channel through the state's channel pool
// over the engine's deterministic streams, and returns it with the fault
// spec it was built from.
func (st *RunState) medium(o Options, g *graph.Graph, r *rng.RNG) (*channel.Medium, channel.Spec, error) {
	spec := o.Faults
	if err := spec.Validate(); err != nil {
		return nil, spec, err
	}
	st.tline.Reset(spec.HasTransport())
	env := channel.Env{Points: g.Points(), Timeline: &st.tline, Tally: &st.h.Tally, Tracer: o.Tracer}
	if spec.TargetsHubs() {
		env.HubOrder = g.ByDegreeDesc()
	}
	ch, err := spec.BuildWith(&st.ch, g.N(), env,
		st.stream(&st.lossRNG, r, "loss"), st.stream(&st.churnRNG, r, "churn"))
	return ch, spec, err
}

// accept returns the rejection-sampling acceptance table for g, computed
// once per (state, graph) from the graph's cached Voronoi areas.
func (st *RunState) accept(g *graph.Graph) []float64 {
	if st.acceptG == g {
		return st.acceptP
	}
	st.acceptP = rejectionAccept(g, sim.GrowFloat(st.acceptP, g.N()))
	st.acceptG = g
	return st.acceptP
}
