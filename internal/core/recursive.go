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

// LeafMode selects how intra-leaf averaging is performed.
type LeafMode int

const (
	// LeafSimulated runs honest nearest-neighbour gossip restricted to
	// the leaf square, charging 2 transmissions per exchange. Default.
	LeafSimulated LeafMode = iota + 1
	// LeafFast snaps the leaf to its exact mean and charges a modeled
	// exchange count (L/gap · ln(dev/target), gap from the leaf's
	// diffusion geometry). Use only for large-n scaling projections;
	// results carry a LeafFastCalls count so the substitution is visible.
	LeafFast
)

// StopMode selects the round-termination rule at internal squares.
type StopMode int

const (
	// StopOracle ends a square's rounds when its members' deviation
	// reaches the level target — the intrinsic cost of the algorithm,
	// which the paper's fixed budgets guarantee w.h.p. Default.
	StopOracle StopMode = iota + 1
	// StopFixedBudget runs exactly ceil(RoundsFactor·m·ln(m/ε_r)) rounds
	// per square, the shape of the paper's time(n, r, ε, δ) budgets.
	StopFixedBudget
)

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
	// (Lemma 2's noise floor). Zero selects 4.
	EpsDecayFactor float64
	// Beta scales the affine coefficient Beta·E#[child]. Zero selects
	// DefaultBeta = 2/5. Experiment E11 sweeps it.
	Beta float64
	// RoundsFactor scales the fixed round budget ceil(RoundsFactor·m·
	// ln(m/ε_r)) used by StopFixedBudget and as the oracle-mode safety
	// cap (4x). Zero selects 4.
	RoundsFactor float64
	// Stop selects the round-termination rule. Zero selects StopOracle.
	Stop StopMode
	// Leaf selects intra-leaf averaging. Zero selects LeafSimulated.
	Leaf LeafMode
	// Convex replaces the affine update with plain averaging of the two
	// representative values (ablation E12).
	Convex bool
	// Recovery selects greedy-routing stall handling. Zero selects
	// routing.RecoveryBFS.
	Recovery routing.Recovery
	// Routes optionally supplies a shared deterministic route/flood
	// cache bound to the run's graph (see routing.Cache). Nil gives the
	// run a fresh private cache; the sweep engine shares one cache per
	// network build. Routing is a pure function of the immutable graph,
	// so cache sharing cannot change results.
	Routes *routing.Cache
	// RecordEvery samples the convergence curve every RecordEvery far
	// exchanges. Zero selects 16.
	RecordEvery int
	// MaxLeafExchanges caps one leaf-averaging call. Zero selects
	// 200·L² + 1000 for a leaf of L members.
	MaxLeafExchanges int
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
	// Obs, when non-nil, receives metrics through the label-free fast
	// path (see obs.Scope). Per-run totals flush at run end; only loss
	// and recovery events report per event, so the ~100ns far-exchange
	// hot path stays atomic-free.
	Obs *obs.Scope
}

func (o RecursiveOptions) withDefaults() RecursiveOptions {
	if o.Eps <= 0 {
		o.Eps = 1e-4
	}
	if o.EpsDecayFactor <= 0 {
		o.EpsDecayFactor = 4
	}
	if o.Beta == 0 {
		o.Beta = DefaultBeta
	}
	if o.RoundsFactor <= 0 {
		o.RoundsFactor = 4
	}
	if o.Stop == 0 {
		o.Stop = StopOracle
	}
	if o.Leaf == 0 {
		o.Leaf = LeafSimulated
	}
	if o.Recovery == 0 {
		o.Recovery = routing.RecoveryBFS
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
	// IncompleteSquares counts internal squares whose oracle-mode rounds
	// hit the safety cap before reaching the level target.
	IncompleteSquares uint64
	// LeafFastCalls counts leaf averagings served by the LeafFast model
	// (zero in fully honest runs).
	LeafFastCalls uint64
	// Reelections counts representative takeovers performed under
	// RecursiveOptions.Recover (also mirrored into the shared Result).
	Reelections uint64
}

type engine struct {
	st *RunState
	g  *graph.Graph
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
	pick    *rng.RNG
	leafRNG *rng.RNG
	// ch is the radio medium every data packet goes through; its clock
	// is driven by the transmission counter (this engine has no tick
	// clock).
	ch channel.Channel
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
	st.bind(g, h, opt.Recovery, opt.Routes)
	st.tline.Reset(spec.HasTransport())
	ch, err := spec.BuildWith(&st.ch, g.N(), st.faultEnv(g, h, spec, opt.Obs, opt.Tracer),
		st.stream(&st.lossRNG, r, "loss"), st.stream(&st.churnRNG, r, "churn"))
	if err != nil {
		return nil, err
	}
	e := &st.rec
	samples := e.curve.Samples[:0] // keep the curve's storage across runs
	*e = engine{
		st:      st,
		g:       g,
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
	// category counts, the far-exchange count (bulk, keeping the exchange
	// hot path atomic-free), and convergence. Ticks = far exchanges, the
	// engine's clock.
	e.obs.EndRun(e.counter.Get(sim.CatNear), e.counter.Get(sim.CatFar),
		e.counter.Get(sim.CatControl), e.counter.Get(sim.CatFlood),
		e.res.FarExchanges, converged, finalErr)
	e.obs.AddFarExchanges(e.res.FarExchanges)
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
// run's observability hooks for delay/arq wrappers, and hierarchy
// representatives and the degree order only when the spec asks for them.
func (st *RunState) faultEnv(g *graph.Graph, h *hier.Hierarchy, spec channel.Spec, scope *obs.Scope, tracer trace.Tracer) channel.Env {
	env := channel.Env{Points: g.Points(), Timeline: &st.tline, Obs: scope, Tracer: tracer}
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
	budget := int(math.Ceil(e.opt.RoundsFactor * float64(m) * math.Log(float64(m)/eps)))
	target2 := eps * e.scale0 * eps * e.scale0
	// Divergence guard for the oracle loop. The affine coefficient
	// Beta·E#[child] contracts only while the induced per-member
	// coefficients stay inside Lemma 1's band; at simulable Θ(log n) leaf
	// sizes an occupancy far below E# (or an extreme Beta, E11) pushes
	// them out and rounds amplify deviation geometrically instead of
	// shrinking it. Detecting the blow-up early keeps values at sane
	// magnitudes — the sum invariant then survives in floating point —
	// and avoids burning the full 4x round cap on a lost cause.
	var dev0 float64
	for round := 0; ; round++ {
		switch e.opt.Stop {
		case StopOracle:
			d2 := e.squareDev2(sq)
			if round == 0 {
				dev0 = d2
			}
			if d2 <= target2 {
				return
			}
			if round >= 4*budget || d2 > 64*dev0 {
				e.res.IncompleteSquares++
				return
			}
		default: // StopFixedBudget
			if round >= budget {
				return
			}
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
	out := e.rt.RouteToNode(ra, rb, e.opt.Recovery)
	// On success paid is the transport layer's extra airtime
	// (retransmissions, duplicates); zero without delay/arq.
	ok, paid := e.ch.DeliverRoundTrip(e.packet(ra, rb, out.Hops))
	if !ok {
		// One of the two route legs was lost: charge the partial cost and
		// apply no update (the oracle loop simply runs another round).
		e.counter.Add(sim.CatFar, paid)
		e.res.RouteFailures++
		e.obs.Loss(paid)
		if e.opt.Tracer != nil {
			e.opt.Tracer.Record(trace.Event{Kind: trace.KindLoss, Square: a.ID, NodeA: ra, NodeB: rb, Hops: paid})
		}
		return
	}
	hops := out.Hops + paid
	delivered := out.Delivered
	if delivered {
		back := e.rt.RouteToNode(rb, ra, e.opt.Recovery)
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
// transmission counter), first draining any due transport completions in
// deterministic (time, seq) order so time-windowed fault state flips at
// delayed-delivery instants exactly as at counter crossings. One branch
// when the timeline is inactive.
func (e *engine) advance() {
	now := e.counter.Total()
	if e.st.tline.Active() {
		e.st.tline.DrainTo(float64(now), e.ch.Advance)
	}
	e.ch.Advance(now)
}

// packet assembles the delivery context for a transmission: endpoint
// positions on spatial media (zero otherwise, as in sim.Harness.Packet)
// and the transmission counter as this engine's clock.
func (e *engine) packet(src, dst int32, hops int) channel.Packet {
	p := channel.Packet{Src: src, Dst: dst, Hops: hops, Now: e.counter.Total()}
	if e.pts != nil {
		p.SrcPos, p.DstPos = e.pts[src], e.pts[dst]
	}
	return p
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
		e.st.chargeReelection(sq, e.ch.Alive, e.opt.Recovery, &e.counter, e.opt.Tracer, e.obs)
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
	rec routing.Recovery, counter *sim.Counter, tracer trace.Tracer, scope *obs.Scope) {
	cost := 0
	for _, m := range sq.Members {
		if alive(m) {
			cost++
		}
	}
	counter.Add(sim.CatFlood, cost)
	if sq.IsLeaf() {
		st.repairLeafSquareInto(st.mutableRepair(), sq, st.view.Rep(sq.ID), rec)
	}
	scope.Reelection()
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
// restricted to the leaf (procedure Near of §4), or by the LeafFast model.
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
	if e.opt.Leaf == LeafFast {
		e.fastLeaf(sq, mean, dev2, target)
		return
	}
	maxEx := e.opt.MaxLeafExchanges
	if maxEx <= 0 {
		maxEx = 200*l*l + 1000
	}
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
		ok, paid := e.ch.DeliverHop(e.packet(u, v, 1))
		if !ok {
			e.counter.Add(sim.CatNear, paid) // lost outbound value
			charged += paid
			e.obs.Loss(paid)
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

// fastLeaf snaps the leaf to its mean and charges the modeled exchange
// count: near-gossip on an L-node leaf contracts deviation by roughly
// (1 − gap/L) per exchange, with gap the diffusive spectral proxy
// (r/side)², so reaching the target needs ≈ (L/gap)·ln(dev/target)
// exchanges.
func (e *engine) fastLeaf(sq *hier.Square, mean, dev2 float64, target float64) {
	l := len(sq.Members)
	side := sq.Rect.Width()
	gap := 0.7 * (e.g.Radius() / side) * (e.g.Radius() / side)
	if gap > 1 {
		gap = 1
	}
	if gap < 0.05 {
		gap = 0.05
	}
	ratio := math.Sqrt(dev2) / target
	if ratio < 1 {
		ratio = 1
	}
	exchanges := int(math.Ceil(float64(l) / gap * math.Log(ratio)))
	if exchanges < 1 {
		exchanges = 1
	}
	e.counter.Add(sim.CatNear, 2*exchanges)
	for _, m := range sq.Members {
		e.tracker.Set(m, mean)
	}
	e.res.LeafFastCalls++
	if e.opt.Tracer != nil {
		e.opt.Tracer.Record(trace.Event{Kind: trace.KindLeafDone, Square: sq.ID, NodeA: e.rep(sq), NodeB: -1, Hops: 2 * exchanges})
	}
}
