// Package core implements the paper's contribution: hierarchical
// geographic gossip with non-convex affine combinations.
//
// Two engines cover the two ways the paper presents the algorithm:
//
//   - RunRecursive follows the round structure of §3 / Observation 1
//     directly: averaging a square means equalizing its child subsquares
//     recursively, then performing long-range exchanges between uniformly
//     random sibling representatives — each exchange applying the affine
//     update with coefficient (2/5)·E#[child] and triggering a recursive
//     re-averaging of both involved children. Every greedy-routing hop,
//     every local pairwise exchange is charged, so measured transmissions
//     follow the paper's H(n, r) recurrence by construction.
//
//   - RunAsync (async.go) is the faithful event-driven protocol of §4:
//     per-node Poisson clocks, local.state/global.state, counters,
//     Near/Far/Activate.square/Deactivate.square, with flooding and
//     geographic routing as the control channel.
//
// Parameter substitutions relative to the paper's proof-driven constants
// are documented in DESIGN.md §4.
package core

import (
	"fmt"
	"math"

	"geogossip/internal/channel"
	"geogossip/internal/geo"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// DefaultBeta is the paper's affine multiplier 2/5: the long-range update
// coefficient is Beta·E#[subsquare], which puts the induced square-sum
// coefficients α_i = Beta·E#/#(□_i) inside Lemma 1's (1/3, 1/2) band under
// ±10% occupancy fluctuation.
const DefaultBeta = 2.0 / 5.0

// epsDecay is κ, the default per-level accuracy decay factor of both
// hierarchy engines: ε_{r+1} = ε_r / (κ·sqrt(E#[□_r])) (DESIGN.md §4.1).
const epsDecay = 4

// RecursiveOptions configures RunRecursive.
type RecursiveOptions struct {
	// Eps is the target relative ℓ₂ accuracy ε₀ at the root. Zero selects
	// 1e-4.
	Eps float64
	// EpsDecayFactor sets the per-level accuracy schedule
	// ε_{r+1} = ε_r / (EpsDecayFactor·sqrt(E#[□_r])). The affine update
	// amplifies residual intra-child error by ≈ Beta·sqrt(E#), so the
	// next level's target must shrink by at least that factor — the
	// practical core of the paper's ε_{r+1} = ε_r/(25·n^{7/2+a}) schedule
	// (Lemma 2's noise floor). Zero selects 4; experiment E15 sweeps it.
	EpsDecayFactor float64
	// Beta scales the affine coefficient Beta·E#[child]. Zero selects
	// DefaultBeta = 2/5. Experiment E11 sweeps it.
	Beta float64
	// Convex replaces the affine update with plain averaging of the two
	// representative values (ablation E12).
	Convex bool
	// Routes optionally supplies a shared deterministic route/flood
	// cache bound to the run's graph (see routing.Cache). Nil gives the
	// run a fresh private cache; the sweep engine shares one cache per
	// network build. Routing is a pure function of the immutable graph,
	// so cache sharing cannot change results.
	Routes *routing.Cache
	// RecordEvery samples the convergence curve every RecordEvery far
	// exchanges. Zero selects 16.
	RecordEvery int
	// Faults selects the radio fault model (loss process, spatial
	// jamming, partition cuts and/or node churn — including churn
	// targeted at hierarchy representatives). The zero Spec is the
	// perfect medium. This engine has no global clock, so churn and
	// field/cut schedules are measured in transmissions.
	Faults channel.Spec
	// Recover enables representative re-election: when a long-range
	// exchange finds a square's representative dead, the member nearest
	// the square's centre among the survivors takes over (paying an
	// election flood over the square's live members) and the exchange
	// proceeds with the new representative. Off by default — enabling it
	// changes behaviour under churn, so historical churn runs stay
	// bit-identical without it. Takeovers happen on a copy-on-write
	// representative view (hier.RepView); the shared hierarchy build is
	// never mutated.
	Recover bool
	// State optionally supplies a reusable run state (routing core,
	// representative view, flattened adjacency/repair tables, channel
	// pool, RNG streams, scratch), so repeat runs — the sweep engine
	// pools one per worker — perform O(1) state allocations instead of
	// re-allocating everything per run. Nil gives the run a fresh private
	// state. Reuse cannot change results (see RunState).
	State *RunState
	// Tracer, when non-nil, receives structured protocol events (far
	// exchanges, leaf completions, losses).
	Tracer trace.Tracer
	// Obs, when non-nil, receives the run's metrics in one flush at run
	// end (see obs.Scope), so the ~100ns far-exchange hot path stays
	// atomic-free. Nil costs nothing.
	Obs *obs.Scope
}

func (o RecursiveOptions) withDefaults() RecursiveOptions {
	if o.Eps <= 0 {
		o.Eps = 1e-4
	}
	if o.EpsDecayFactor <= 0 {
		o.EpsDecayFactor = epsDecay
	}
	if o.Beta == 0 {
		o.Beta = DefaultBeta
	}
	if o.RecordEvery <= 0 {
		o.RecordEvery = 16
	}
	return o
}

// Result extends the shared run summary with protocol-specific counters.
type Result struct {
	*metrics.Result
	// FarExchanges counts long-range affine exchanges across all levels.
	FarExchanges uint64
	// RouteFailures counts undeliverable representative round trips
	// (possible only on disconnected instances).
	RouteFailures uint64
	// LeafStalls counts leaf-averaging calls that hit their exchange cap
	// before reaching the level target.
	LeafStalls uint64
	// IncompleteSquares counts internal squares whose rounds hit the
	// round cap or the divergence guard before reaching the level target.
	IncompleteSquares uint64
	// Reelections counts representative takeovers performed under
	// RecursiveOptions.Recover (also mirrored into the shared Result).
	Reelections uint64
}

type engine struct {
	st *RunState
	rt *routing.Router
	h  *hier.Hierarchy
	// view is the copy-on-write representative overlay: every
	// representative read and re-election goes through it, so the shared
	// hierarchy build is never mutated and a pooled state resets in O(1).
	view    *hier.RepView
	opt     RecursiveOptions
	x       []float64
	tracker *sim.ErrTracker
	counter sim.Counter
	curve   metrics.Curve
	scale0  float64
	obs     *obs.Scope
	// tally counts the run's per-event metrics; the struct reset at run
	// start zeroes it, and the run-end flush hands it to obs.
	tally   obs.Tally
	pick    *rng.RNG
	leafRNG *rng.RNG
	// ch is the radio medium every data packet goes through; its clock
	// is driven by the transmission counter (this engine has no tick
	// clock).
	ch *channel.Medium
	// pts holds node positions for spatial media and is nil otherwise
	// (sim.SpatialPoints): no other medium reads Packet positions.
	pts []geo.Point

	res Result
}

// rep returns sq's current representative through the view.
func (e *engine) rep(sq *hier.Square) int32 { return e.view.Rep(sq.ID) }

// RunRecursive runs the hierarchical affine-gossip algorithm over graph g
// with hierarchy h (built over the same points), mutating x in place
// toward consensus. It returns per-category transmission counts, the
// convergence curve, and protocol counters.
func RunRecursive(g *graph.Graph, h *hier.Hierarchy, x []float64, opt RecursiveOptions, r *rng.RNG) (*Result, error) {
	if g.N() != len(x) {
		return nil, fmt.Errorf("core: %d nodes but %d values", g.N(), len(x))
	}
	if err := sim.CheckFinite(x); err != nil {
		return nil, err
	}
	if len(h.NodeLeaf) != g.N() {
		return nil, fmt.Errorf("core: hierarchy covers %d nodes, graph has %d", len(h.NodeLeaf), g.N())
	}
	opt = opt.withDefaults()
	name := algorithmName(opt, h)
	if g.N() == 0 {
		return &Result{Result: sim.EmptyResult(name)}, nil
	}
	spec := opt.Faults
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	st := opt.State
	if st == nil {
		st = &RunState{}
	}
	// Re-elections (under Recover) write to the state's representative
	// view, never to the shared hierarchy build; bind also resets the
	// view and the copy-on-write repair table for this run.
	st.bind(g, h, opt.Routes)
	st.tline.Reset(spec.HasTransport())
	ch, err := spec.BuildWith(&st.ch, g.N(), st.faultEnv(g, h, spec, &st.rec.tally, opt.Tracer),
		st.stream(&st.lossRNG, r, "loss"), st.stream(&st.churnRNG, r, "churn"))
	if err != nil {
		return nil, err
	}
	e := &st.rec
	samples := e.curve.Samples[:0] // keep the curve's storage across runs
	*e = engine{
		st:      st,
		rt:      &st.router,
		h:       h,
		view:    &st.view,
		opt:     opt,
		x:       x,
		tracker: &st.tracker,
		obs:     opt.Obs,
		pick:    st.stream(&st.pickRNG, r, "pick"),
		leafRNG: st.stream(&st.leafRNG, r, "leaf"),
		ch:      ch,
		pts:     sim.SpatialPoints(spec, g.Points()),
	}
	e.curve.Samples = samples
	st.tracker.Reset(x)
	e.scale0 = e.tracker.Norm0()
	e.curve.Record(0, 0, e.tracker.Err())
	// A start at (numerical) consensus needs no work; the threshold keeps
	// float residue in Norm0 from demanding impossible absolute targets.
	if e.scale0 > 1e-12*(math.Abs(e.tracker.Mean())+1) {
		e.avg(h.Root(), opt.Eps)
	}
	e.tracker.Resync()
	finalErr := e.tracker.Err()
	atConsensus := e.scale0 <= 1e-12*(math.Abs(e.tracker.Mean())+1)
	e.curve.Record(e.res.FarExchanges, e.counter.Total(), finalErr)
	converged := finalErr <= opt.Eps || atConsensus
	// This engine has no harness, so it flushes its run totals itself:
	// the tally with the far-exchange count added (the exchange hot path
	// counts only in the result), category counts and convergence.
	// Ticks = far exchanges, the engine's clock. A run whose final error
	// is not finite fails, so it is not flushed (see sim.Finite).
	if sim.Finite(finalErr) {
		e.tally.AddFarExchanges(e.res.FarExchanges)
		e.obs.EndRun(&e.tally, e.counter.Get(sim.CatNear), e.counter.Get(sim.CatFar),
			e.counter.Get(sim.CatControl), e.counter.Get(sim.CatFlood),
			e.res.FarExchanges, converged, finalErr)
	}
	e.res.Result = &metrics.Result{
		Algorithm:               name,
		N:                       g.N(),
		Converged:               converged,
		FinalErr:                finalErr,
		Ticks:                   e.res.FarExchanges,
		Transmissions:           e.counter.Total(),
		TransmissionsByCategory: e.counter.Breakdown(),
		Curve:                   e.curve.Snapshot(),
		Alive:                   sim.AliveMask(e.ch, g.N()),
		Reelections:             e.res.Reelections,
	}
	// This engine's clock is the transmission counter, so its simulated
	// seconds are denominated in transmissions per node rather than Poisson
	// ticks per node; zero without transport components, like the others.
	e.res.SimSeconds = sim.SimSeconds(&st.tline, e.counter.Total(), g.N())
	// The engine lives inside a pooled state: hand out a copy so a later
	// run's reset cannot touch the caller's counters.
	res := e.res
	return &res, nil
}

// faultEnv assembles the network context spatial, targeted and transport
// fault models bind to: positions always, the state's timeline plus the
// run's tally and tracer for the delay and ARQ stages, and hierarchy
// representatives and the degree order only when the spec asks for them.
func (st *RunState) faultEnv(g *graph.Graph, h *hier.Hierarchy, spec channel.Spec, tally *obs.Tally, tracer trace.Tracer) channel.Env {
	env := channel.Env{Points: g.Points(), Timeline: &st.tline, Tally: tally, Tracer: tracer}
	if spec.TargetsReps() {
		env.Reps = h.Reps()
	}
	if spec.TargetsHubs() {
		env.HubOrder = g.ByDegreeDesc()
	}
	return env
}

func algorithmName(opt RecursiveOptions, h *hier.Hierarchy) string {
	kind := "affine"
	if opt.Convex {
		kind = "convex"
	}
	shape := "hierarchical"
	if h.Ell <= 2 {
		shape = "flat"
	}
	return kind + "-" + shape
}

// Leaf repair — handling leaves whose internal subgraph is not connected
// — lives on RunState (repairLeafSquareInto): at the paper's (log n)^8
// leaf sizes a leaf's side vastly exceeds the radio radius and splitting
// cannot happen; at this repository's simulable Θ(log n) leaf sizes the
// leaf side is comparable to r, so a leaf occasionally splits into
// in-leaf components (in the extreme, isolated nodes whose neighbours all
// lie across the leaf boundary). Without repair those components' values
// could never equalize and every enclosing square's averaging would stall
// at its round cap. For every in-leaf component not containing the
// representative, the component's smallest-index member becomes a bridge:
// whenever its clock picks it for a Near exchange it exchanges with the
// representative over a greedy-routed path, paying the hops. The repair
// table holds the per-node route hop count (0 = ordinary node, -1 = rep
// unreachable, possible only on globally disconnected instances).

// kidCount returns the number of sq's children with members, and the
// first such child.
func (e *engine) kidCount(sq *hier.Square) (int, *hier.Square) {
	m := 0
	var first *hier.Square
	for _, cid := range sq.Children {
		c := e.h.Squares[cid]
		if len(c.Members) > 0 {
			if m == 0 {
				first = c
			}
			m++
		}
	}
	return m, first
}

// kid returns sq's k-th child with members (k < kidCount). The scan
// replaces the per-call kids slice the round loop used to allocate;
// children per square are bounded by the branching factor, so the scan is
// negligible beside the exchange it selects for.
func (e *engine) kid(sq *hier.Square, k int) *hier.Square {
	for _, cid := range sq.Children {
		c := e.h.Squares[cid]
		if len(c.Members) > 0 {
			if k == 0 {
				return c
			}
			k--
		}
	}
	panic("core: kid index out of range")
}

// avg drives square sq's member values to within eps·scale0 of their
// in-square mean (the recursive protocol A of §3).
func (e *engine) avg(sq *hier.Square, eps float64) {
	if len(sq.Members) <= 1 {
		return
	}
	if sq.IsLeaf() {
		e.leafAverage(sq, eps)
		return
	}
	m, first := e.kidCount(sq)
	epsNext := eps / (e.opt.EpsDecayFactor * math.Sqrt(sq.Expected))
	if m == 1 {
		// All mass in one child: averaging the child is averaging sq.
		e.avg(first, eps)
		return
	}
	// Initial equalization: run A on every child independently.
	for _, cid := range sq.Children {
		if c := e.h.Squares[cid]; len(c.Members) > 0 {
			e.avg(c, epsNext)
		}
	}
	// The rounds end when the members' deviation reaches the level
	// target (the oracle stop: the intrinsic cost the paper's fixed
	// budgets of O(m·ln(m/ε_r)) rounds guarantee w.h.p.), or at a safety
	// cap of 4·⌈4·m·ln(m/ε_r)⌉ rounds (DESIGN.md §4.3).
	maxRounds := 4 * int(math.Ceil(4*float64(m)*math.Log(float64(m)/eps)))
	target2 := eps * e.scale0 * eps * e.scale0
	// Divergence guard for the oracle loop. The affine coefficient
	// Beta·E#[child] contracts only while the induced per-member
	// coefficients stay inside Lemma 1's band; at simulable Θ(log n) leaf
	// sizes an occupancy far below E# (or an extreme Beta, E11) pushes
	// them out and rounds amplify deviation geometrically instead of
	// shrinking it. Detecting the blow-up early keeps values at sane
	// magnitudes — the sum invariant then survives in floating point —
	// and avoids burning the full round cap on a lost cause.
	var dev0 float64
	for round := 0; ; round++ {
		d2 := e.squareDev2(sq)
		if round == 0 {
			dev0 = d2
		}
		if d2 <= target2 {
			return
		}
		if round >= maxRounds || d2 > 64*dev0 {
			e.res.IncompleteSquares++
			return
		}
		i := e.pick.IntN(m)
		j := e.pick.IntNExcept(m, i)
		ki, kj := e.kid(sq, i), e.kid(sq, j)
		e.farExchange(ki, kj)
		e.avg(ki, epsNext)
		e.avg(kj, epsNext)
	}
}

// farExchange performs one long-range exchange between the representatives
// of sibling squares a and b: greedy round-trip routing plus the affine
// (or, under the Convex ablation, convex) update on the two representative
// values, using old values on both sides as in §3 steps 3–4.
func (e *engine) farExchange(a, b *hier.Square) {
	e.advance()
	if e.opt.Recover && (!e.ensureRep(a) || !e.ensureRep(b)) {
		return // a square lost all members; nothing to exchange with
	}
	ra, rb := e.rep(a), e.rep(b)
	out := e.rt.RouteToNode(ra, rb, routing.RecoveryBFS)
	// On success paid is the transport layer's extra airtime
	// (retransmissions, duplicates); zero without delay/arq.
	ok, paid := e.ch.DeliverRoundTrip(channel.NewPacket(e.pts, ra, rb, out.Hops, e.counter.Total()))
	if !ok {
		// One of the two route legs was lost: charge the partial cost and
		// apply no update (the oracle loop simply runs another round).
		e.counter.Add(sim.CatFar, paid)
		e.res.RouteFailures++
		e.tally.Loss(paid)
		if e.opt.Tracer != nil {
			e.opt.Tracer.Record(trace.Event{Kind: trace.KindLoss, Square: a.ID, NodeA: ra, NodeB: rb, Hops: paid})
		}
		return
	}
	hops := out.Hops + paid
	delivered := out.Delivered
	if delivered {
		back := e.rt.RouteToNode(rb, ra, routing.RecoveryBFS)
		hops += back.Hops
		delivered = back.Delivered
	}
	e.counter.Add(sim.CatFar, hops)
	if !delivered {
		e.res.RouteFailures++
		return
	}
	xi, xj := e.x[ra], e.x[rb]
	var ni, nj float64
	if e.opt.Convex {
		avg := (xi + xj) / 2
		ni, nj = avg, avg
	} else {
		coeff := e.opt.Beta * a.Expected // siblings share Expected
		ni = xi + coeff*(xj-xi)
		nj = xj + coeff*(xi-xj)
	}
	e.tracker.Set(ra, ni)
	e.tracker.Set(rb, nj)
	e.res.FarExchanges++
	if e.opt.Tracer != nil {
		e.opt.Tracer.Record(trace.Event{Kind: trace.KindFar, Square: a.ID, NodeA: ra, NodeB: rb, Hops: hops})
	}
	if e.res.FarExchanges%uint64(e.opt.RecordEvery) == 0 {
		e.curve.Record(e.res.FarExchanges, e.counter.Total(), e.tracker.Err())
	}
}

// advance moves the medium to the engine's current clock reading (the
// transmission counter). Transport completions that fell due since the
// last reading need no step of their own: the medium evaluates its
// time-dependent state when queried, against the latest Advance.
func (e *engine) advance() {
	e.ch.Advance(e.counter.Total())
}

// ensureRep re-elects square sq's representative if it has died
// (nearest-alive-member takeover on the view), charging the election
// flood. It reports whether the square has a representative afterwards.
func (e *engine) ensureRep(sq *hier.Square) bool {
	if rep := e.rep(sq); rep >= 0 && e.ch.Alive(rep) {
		return true
	}
	next, changed := e.view.ReelectSquare(sq.ID, e.ch.Alive)
	if changed {
		e.res.Reelections++
		e.st.chargeReelection(sq, e.ch.Alive, &e.counter, e.opt.Tracer, &e.tally)
	}
	return next >= 0
}

// chargeReelection pays the accounting for a representative takeover in
// square sq, shared by the recursive and async engines: the election
// flood over the square's live members — one broadcast each, the cost
// of the square discovering the silence and agreeing on a successor —
// the trace event, and a rebuild of the leaf's repair bridges relative
// to the successor (a takeover into a different in-leaf component moves
// the bridges, not just their route lengths). The view already holds the
// successor; all scratch is state-owned and reused across elections.
func (st *RunState) chargeReelection(sq *hier.Square, alive func(int32) bool,
	counter *sim.Counter, tracer trace.Tracer, tally *obs.Tally) {
	cost := 0
	for _, m := range sq.Members {
		if alive(m) {
			cost++
		}
	}
	counter.Add(sim.CatFlood, cost)
	if sq.IsLeaf() {
		st.repairLeafSquareInto(st.mutableRepair(), sq, st.view.Rep(sq.ID))
	}
	tally.Reelection()
	if tracer != nil {
		tracer.Record(trace.Event{Kind: trace.KindReelect, Square: sq.ID, NodeA: st.view.Rep(sq.ID), NodeB: -1, Hops: cost})
	}
}

// squareDev2 returns the squared ℓ₂ deviation of sq's member values from
// their in-square mean.
func (e *engine) squareDev2(sq *hier.Square) float64 {
	var sum float64
	for _, m := range sq.Members {
		sum += e.x[m]
	}
	mean := sum / float64(len(sq.Members))
	var dev2 float64
	for _, m := range sq.Members {
		d := e.x[m] - mean
		dev2 += d * d
	}
	return dev2
}

// leafAverage equalizes a leaf square by nearest-neighbour gossip
// restricted to the leaf (procedure Near of §4), capped at 200·L² + 1000
// exchanges for a leaf of L members.
func (e *engine) leafAverage(sq *hier.Square, eps float64) {
	members := sq.Members
	l := len(members)
	if l <= 1 {
		return
	}
	var sum float64
	for _, m := range members {
		sum += e.x[m]
	}
	mean := sum / float64(l)
	var dev2 float64
	for _, m := range members {
		d := e.x[m] - mean
		dev2 += d * d
	}
	target := eps * e.scale0
	target2 := target * target
	if dev2 <= target2 {
		return
	}
	maxEx := 200*l*l + 1000
	repair := e.st.repair
	// charged accumulates the call's total near-plane cost (successful
	// exchanges plus partial loss charges); the leaf-done event carries it
	// in Hops, so trace hop totals reproduce the transmission counter
	// without per-packet leaf events (losses here are rolled into the
	// leaf's summary event — KindLoss stays reserved for route failures).
	charged := 0
	for k := 0; k < maxEx && dev2 > target2; k++ {
		u := members[e.leafRNG.IntN(l)]
		e.advance()
		if !e.ch.Alive(u) {
			continue // a dead node's clock never picks it
		}
		cands := e.st.leafNbrs(u)
		var v int32
		cost := 2
		switch {
		case repair[u] > 0 && e.rep(sq) >= 0:
			// Bridge/orphan: exchange with the representative over the
			// precomputed route so in-leaf components equalize.
			v = e.rep(sq)
			cost = 2 * int(repair[u])
		case len(cands) > 0:
			v = cands[e.leafRNG.IntN(len(cands))]
		default:
			continue
		}
		ok, paid := e.ch.DeliverHop(channel.NewPacket(e.pts, u, v, 1, e.counter.Total()))
		if !ok {
			e.counter.Add(sim.CatNear, paid) // lost outbound value
			charged += paid
			e.tally.Loss(paid)
			continue
		}
		xu, xv := e.x[u], e.x[v]
		avg := (xu + xv) / 2
		du, dv, da := xu-mean, xv-mean, avg-mean
		dev2 += 2*da*da - du*du - dv*dv
		e.tracker.Set(u, avg)
		e.tracker.Set(v, avg)
		// paid on success is the transport layer's extra airtime
		// (retransmissions, duplicates); zero without delay/arq.
		e.counter.Add(sim.CatNear, cost+paid)
		charged += cost + paid
	}
	if dev2 > target2 {
		e.res.LeafStalls++
	}
	if e.opt.Tracer != nil {
		e.opt.Tracer.Record(trace.Event{Kind: trace.KindLeafDone, Square: sq.ID, NodeA: e.rep(sq), NodeB: -1, Hops: charged})
	}
}
