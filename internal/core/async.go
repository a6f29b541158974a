package core

import (
	"fmt"
	"math"

	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// AsyncOptions configures RunAsync, the event-driven protocol of §4: the
// engines' one options record over this package's pooled run state. The
// engine reads Stop, Eps, Beta, Throttle, RoundsFactor, LeafTicks,
// RecordEvery, Faults, Recover, Routes, State, Tracer and Obs.
//
// Budget model: the paper gives each square a round length
// time(n, r, ε, δ) — a worst-case 16th-power polylog — and throttles
// long-range exchanges to rate n^{-a}/time so that, w.h.p., no exchange
// fires while the subtree below it is still averaging. We keep the
// structure and replace the constants: a leaf representative's round
// lasts LeafTicks of its own clock; an internal square at depth r gets
// budget(r) = ceil(RoundsFactor·ln(m/ε_r))·Throttle·budget(r+1) ticks
// (m = its child count, ε_r from Eps by the schedule of DESIGN.md §4.1
// at κ = 4), and a depth-r square fires Far with probability
// 1/(Throttle·budget(r)) per tick. Throttle stands in for the paper's
// n^a serialization factor; experiment E13 sweeps it and counts overlap
// events. Stop is the experiment-level oracle that ends the run. Under
// Recover, once per simulated time unit (n ticks) squares with dead
// representatives re-elect, and nodes that revived since the last sweep
// resync their control state from a live leaf neighbour; the control
// plane (activation floods and routes) is assumed reliable.
type AsyncOptions = sim.Options[RunState]

// asyncDefaults returns o with RunAsync's zero fields replaced by its
// defaults.
func asyncDefaults(o AsyncOptions) AsyncOptions {
	if o.Eps <= 0 {
		o.Eps = 1e-2
	}
	if o.Beta == 0 {
		o.Beta = DefaultBeta
	}
	if o.Throttle <= 0 {
		// The overlap probability per round is ~1/Throttle, and the damage
		// an overlapping exchange does grows with the affine coefficient
		// Beta·E# — i.e. with n. 8 is safe for the sizes this repository
		// simulates; the paper scales the analogous factor as n^a.
		o.Throttle = 8
	}
	if o.RoundsFactor <= 0 {
		o.RoundsFactor = 1
	}
	if o.LeafTicks <= 0 {
		o.LeafTicks = 64
	}
	return o
}

type asyncEngine struct {
	st *RunState
	g  *graph.Graph
	rt *routing.Router
	h  *hier.Hierarchy
	// view is the copy-on-write representative overlay: every
	// representative read, role lookup, and re-election goes through it.
	view *hier.RepView
	opt  AsyncOptions
	x    []float64

	// run bundles the clock, error tracker, transmission counter,
	// convergence curve, and the radio medium.
	run *sim.Harness
	// expectedLoss is the data-plane medium's long-run loss rate, used
	// to inflate round budgets.
	expectedLoss float64

	// Per-node / per-square protocol state, backed by the run state's
	// reusable (memclr-reset) slices.
	localOn  []bool // per node
	globalOn []bool // per square
	active   []bool // per square: Activate fired, Deactivate not yet
	count    []uint64
	budget   []uint64  // per depth
	pFar     []float64 // per depth
	// prevAlive tracks liveness between recovery sweeps so revivals can
	// trigger a state resync (nil when Recover is off).
	prevAlive []bool
	// healEvery is the recovery-sweep period in ticks (n = once per
	// simulated time unit; 0 when Recover is off).
	healEvery uint64

	protoRNG *rng.RNG
	// res holds the run's protocol and recovery counters, counted in
	// place; the harness fills in the rest of the result at run end.
	res metrics.Result
}

// rep returns sq's current representative through the view.
func (e *asyncEngine) rep(sq *hier.Square) int32 { return e.view.Rep(sq.ID) }

// RunAsync runs the faithful asynchronous protocol of §4 over graph g and
// hierarchy h, mutating x toward consensus. Termination is governed by
// opt.Stop (error target and/or tick cap).
func RunAsync(g *graph.Graph, h *hier.Hierarchy, x []float64, opt AsyncOptions, r *rng.RNG) (*AsyncResult, error) {
	if g.N() != len(x) {
		return nil, fmt.Errorf("core: %d nodes but %d values", g.N(), len(x))
	}
	if err := sim.CheckFinite(x); err != nil {
		return nil, err
	}
	if len(h.NodeLeaf) != g.N() {
		return nil, fmt.Errorf("core: hierarchy covers %d nodes, graph has %d", len(h.NodeLeaf), g.N())
	}
	opt = asyncDefaults(opt)
	if g.N() == 0 {
		return &Result{Result: sim.EmptyResult("affine-async")}, nil
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
	// view, never to the shared hierarchy build.
	st.bind(g, h, opt.Routes)
	e := &st.async
	*e = asyncEngine{
		st:           st,
		g:            g,
		rt:           &st.router,
		h:            h,
		view:         &st.view,
		opt:          opt,
		x:            x,
		expectedLoss: spec.ExpectedLossRate(),
		protoRNG:     st.stream(&st.protoRNG, r, "protocol"),
	}
	st.localOn = sim.GrowBool(st.localOn, g.N())
	st.globalOn = sim.GrowBool(st.globalOn, len(h.Squares))
	st.active = sim.GrowBool(st.active, len(h.Squares))
	st.count = sim.GrowUint64(st.count, len(h.Squares))
	e.localOn, e.globalOn, e.active, e.count = st.localOn, st.globalOn, st.active, st.count
	if opt.Recover {
		e.healEvery = uint64(g.N())
		st.prevAlive = sim.GrowBool(st.prevAlive, g.N())
		for i := range st.prevAlive {
			st.prevAlive[i] = true
		}
		e.prevAlive = st.prevAlive
	}
	// The data-plane medium draws losses from the protocol stream (the
	// same stream the inline checks used, keeping pre-channel runs
	// bit-identical) and churn schedules from their own stream.
	st.tline.Reset(spec.HasTransport())
	medium, err := spec.BuildWith(&st.ch, g.N(), st.faultEnv(g, h, spec, &st.harness.Tally, opt.Tracer), e.protoRNG, st.stream(&st.churnRNG, r, "churn"))
	if err != nil {
		return nil, err
	}
	e.buildBudgets()
	e.buildSibs()

	// Initialization (§4.2): the root representative's global.state is on;
	// everything else off.
	root := h.Root()
	if e.rep(root) >= 0 {
		e.globalOn[root.ID] = true
	}

	st.harness.Reset(x, sim.HarnessConfig{
		Stop:        opt.Stop,
		RecordEvery: opt.RecordEvery,
		Medium:      medium,
		Points:      sim.SpatialPoints(spec, g.Points()),
		Router:      e.rt,
		Tracer:      opt.Tracer,
		Obs:         opt.Obs,
		Timeline:    &st.tline,
	}, st.stream(&st.clockRNG, r, "clock"))
	e.run = &st.harness
	e.loop()
	// The engine lives inside a pooled state: hand out a copy so a later
	// run's reset cannot touch the caller's counters.
	res := e.res
	res.BudgetByDepth = append([]uint64(nil), e.budget...)
	return &Result{Result: e.run.Finish("affine-async", &res)}, nil
}

// loop runs the §4.2 protocol's clock ticks until the stop rule fires.
// An owner is idle when it holds no representative role and its
// local.state is off: its tick does nothing but take the curve sample,
// whether it is alive or dead. Idle owners are most ticks of a run, so
// the loop handles them itself, with the clock draw, the tick count and
// a few compares, and hands every other owner to busy. It is the one
// tick loop under every medium, Recover and churn included (DESIGN.md
// §7). Zero allocations in steady state.
func (e *asyncEngine) loop() {
	h := e.run
	for !h.Done() {
		s := h.Clock.Next()
		h.Advance()
		if e.healEvery > 0 && h.Clock.Ticks()%e.healEvery == 0 {
			e.heal()
		}
		if e.localOn[s] || e.view.HasRoles(s) {
			e.busy(s)
		}
		h.Sample()
	}
}

// busy runs the tick of an owner s that is not idle: when s is alive,
// its representative roles run their square protocol, then s performs a
// Near exchange when its local.state is on (warm routes and floods are
// served by the routing core's cache and scratch).
func (e *asyncEngine) busy(s int32) {
	if !e.run.Alive(s) {
		return
	}
	for _, sqID := range e.view.Roles(s) {
		e.repStep(int(sqID))
	}
	if e.localOn[s] {
		e.near(s)
	}
}

// heal runs the periodic recovery sweep: re-elect representatives of
// squares whose rep died (nearest-alive-member takeover, paying an
// election flood over the square's live members) and resync the control
// state of nodes that revived since the last sweep from a live leaf
// neighbour. Fired once per simulated time unit (n ticks).
func (e *asyncEngine) heal() {
	alive := e.run.Medium.Alive
	changed := e.view.Reelect(alive, e.st.changedBuf[:0])
	e.st.changedBuf = changed
	for _, id := range changed {
		sq := e.h.Squares[id]
		e.res.Reelections++
		e.st.chargeReelection(sq, alive, &e.run.Counter, e.opt.Tracer, &e.run.Tally)
		// The successor restarts the square's round from scratch.
		e.count[id] = 0
	}
	if len(changed) > 0 {
		// Representative movement changes the exchange-partner lists; the
		// view keeps node→roles current by itself.
		e.buildSibs()
	}
	for i := range e.prevAlive {
		up := alive(int32(i))
		if up && !e.prevAlive[i] {
			// Revived: pull current local.state from a live neighbour in
			// the same leaf (restart-from-neighbor resync). With no live
			// leaf neighbour nothing is pulled — the node conservatively
			// stays off, pays nothing, and retries at the next sweep.
			e.localOn[i] = false
			resynced := false
			donor := int32(-1)
			for _, v := range e.st.leafNbrs(int32(i)) {
				if alive(v) {
					e.localOn[i] = e.localOn[v]
					resynced = true
					donor = v
					break
				}
			}
			if !resynced {
				continue // prevAlive stays false: retry next sweep
			}
			e.run.Counter.Add(sim.CatControl, 2)
			e.res.Resyncs++
			leaf := int(e.h.NodeLeaf[i])
			e.run.Tally.Churn(true)
			e.run.Tally.Resync()
			e.run.Trace(trace.KindChurn, leaf, int32(i), 1, 0)
			e.run.Trace(trace.KindResync, leaf, int32(i), donor, 2)
		} else if !up && e.prevAlive[i] {
			e.run.Tally.Churn(false)
			e.run.Trace(trace.KindChurn, int(e.h.NodeLeaf[i]), int32(i), 0, 0)
		}
		e.prevAlive[i] = up
	}
}

// buildBudgets computes per-depth round budgets bottom-up and the derived
// Far rates into the state's reusable per-depth slices.
func (e *asyncEngine) buildBudgets() {
	depths := e.h.Ell // squares exist at depths 0..Ell-1
	e.st.budget = sim.GrowUint64(e.st.budget, depths)
	e.st.pFar = sim.GrowFloat(e.st.pFar, depths)
	e.st.epsBuf = sim.GrowFloat(e.st.epsBuf, depths)
	e.budget, e.pFar = e.st.budget, e.st.pFar
	leafDepth := depths - 1
	e.budget[leafDepth] = uint64(e.opt.LeafTicks)
	// Per-depth accuracy targets follow the adaptive decay schedule.
	eps := e.st.epsBuf
	eps[0] = e.opt.Eps
	expected := float64(e.g.N())
	for r := 1; r < depths; r++ {
		eps[r] = eps[r-1] / (epsDecay * math.Sqrt(expected))
		expected /= float64(e.h.Branching[r-1])
	}
	// Under packet loss a Far exchange survives only with probability
	// (1-loss)²; rounds are budgeted for the effective exchange count.
	// Transport ARQ raises the true survival rate, but the budget
	// deliberately ignores it: budgets sized for the raw loss rate only
	// over-provision rounds, which is safe (DESIGN.md §12).
	lossFactor := 1.0
	if e.expectedLoss > 0 && e.expectedLoss < 1 {
		surv := (1 - e.expectedLoss) * (1 - e.expectedLoss)
		lossFactor = 1 / surv
	}
	for r := leafDepth - 1; r >= 0; r-- {
		m := float64(e.h.Branching[r]) // children per depth-r square
		rounds := math.Ceil(e.opt.RoundsFactor * lossFactor * math.Log(m/eps[r]))
		if rounds < 1 {
			rounds = 1
		}
		e.budget[r] = uint64(rounds*e.opt.Throttle) * e.budget[r+1]
	}
	for r := 1; r < depths; r++ {
		e.pFar[r] = 1 / (e.opt.Throttle * float64(e.budget[r]))
		if e.pFar[r] > 1 {
			e.pFar[r] = 1
		}
	}
	// Depth 0 (the root) has no siblings: no Far.
	e.pFar[0] = 0
}

// buildSibs flattens each square's exchange-partner list — its siblings
// with a live representative assignment, in child-grid order — into the
// state's offset-indexed pair. Rebuilt after recovery sweeps that move
// representatives; allocation-free once the buffers have grown.
func (e *asyncEngine) buildSibs() {
	nsq := len(e.h.Squares)
	e.st.sibsOff = sim.GrowInt32(e.st.sibsOff, nsq+1)
	off := e.st.sibsOff
	total := int32(0)
	off[0] = 0
	for id, sq := range e.h.Squares {
		if sq.Parent >= 0 && e.view.Rep(id) >= 0 {
			parent := e.h.Squares[sq.Parent]
			for _, c := range parent.Children {
				if c != sq.ID && e.view.Rep(c) >= 0 {
					total++
				}
			}
		}
		off[id+1] = total
	}
	e.st.sibsIDs = sim.GrowInt32(e.st.sibsIDs, int(total))
	ids := e.st.sibsIDs
	fill := int32(0)
	for id, sq := range e.h.Squares {
		if sq.Parent >= 0 && e.view.Rep(id) >= 0 {
			parent := e.h.Squares[sq.Parent]
			for _, c := range parent.Children {
				if c != sq.ID && e.view.Rep(c) >= 0 {
					ids[fill] = int32(c)
					fill++
				}
			}
		}
	}
}

// sibs returns square id's exchange partners (read-only, valid until the
// next buildSibs).
func (e *asyncEngine) sibs(id int) []int32 {
	return e.st.sibsIDs[e.st.sibsOff[id]:e.st.sibsOff[id+1]]
}

// repStep executes the level > 0 protocol for the square sqID on a tick of
// its representative (§4.2).
func (e *asyncEngine) repStep(sqID int) {
	sq := e.h.Squares[sqID]
	if e.globalOn[sqID] {
		if e.count[sqID] == 0 {
			e.activate(sq)
		}
		if e.pFar[sq.Depth] > 0 && e.protoRNG.Bernoulli(e.pFar[sq.Depth]) {
			e.far(sq)
			e.count[sqID] = 0
			return // counter reset; next tick re-activates
		}
	}
	if e.count[sqID] >= e.budget[sq.Depth] {
		e.deactivate(sq)
	} else {
		e.count[sqID]++
	}
}

// activate switches sq's square on (Activate.square): a level-1 (leaf)
// representative floods local.state ← on within its square; higher levels
// route control packets to each child representative setting
// global.state ← on.
func (e *asyncEngine) activate(sq *hier.Square) {
	if e.active[sq.ID] {
		return
	}
	e.active[sq.ID] = true
	e.res.Activations++
	// The event is emitted after the control traffic so it can carry the
	// transition's total charged cost in Hops.
	cost := 0
	if sq.IsLeaf() {
		fl := e.rt.Flood(e.rep(sq), sq.Rect)
		e.run.Counter.Add(sim.CatFlood, fl.Transmissions)
		cost = fl.Transmissions
		for _, v := range fl.Reached {
			e.localOn[v] = true
		}
	} else {
		for _, cid := range sq.Children {
			child := e.h.Squares[cid]
			childRep := e.rep(child)
			if childRep < 0 {
				continue
			}
			res := e.rt.RouteToNode(e.rep(sq), childRep, routing.RecoveryBFS)
			e.run.Counter.Add(sim.CatControl, res.Hops)
			cost += res.Hops
			if res.Delivered {
				e.globalOn[child.ID] = true
			}
		}
	}
	e.run.Trace(trace.KindActivate, sq.ID, e.rep(sq), -1, cost)
}

// deactivate is activate's inverse (Deactivate.square). It only pays the
// control cost on an actual transition.
func (e *asyncEngine) deactivate(sq *hier.Square) {
	if !e.active[sq.ID] {
		return
	}
	e.active[sq.ID] = false
	e.res.Deactivations++
	cost := 0
	if sq.IsLeaf() {
		fl := e.rt.Flood(e.rep(sq), sq.Rect)
		e.run.Counter.Add(sim.CatFlood, fl.Transmissions)
		cost = fl.Transmissions
		for _, v := range fl.Reached {
			e.localOn[v] = false
		}
	} else {
		for _, cid := range sq.Children {
			child := e.h.Squares[cid]
			childRep := e.rep(child)
			if childRep < 0 {
				continue
			}
			res := e.rt.RouteToNode(e.rep(sq), childRep, routing.RecoveryBFS)
			e.run.Counter.Add(sim.CatControl, res.Hops)
			cost += res.Hops
			if res.Delivered {
				e.globalOn[child.ID] = false
			}
		}
	}
	e.run.Trace(trace.KindDeactivate, sq.ID, e.rep(sq), -1, cost)
}

// far performs one long-range exchange (procedure Far of §4.2): the
// representative routes to a uniformly random sibling square's
// representative, both apply the affine update with coefficient
// Beta·E#[□], and both counters reset so both subtrees re-average.
func (e *asyncEngine) far(sq *hier.Square) {
	sibs := e.sibs(sq.ID)
	if len(sibs) == 0 {
		return
	}
	if e.count[sq.ID] < e.budget[sq.Depth] {
		// The square's own round was still in progress: the event the
		// paper's n^{-a} throttling is designed to make negligible.
		e.res.OverlapFars++
	}
	partner := e.h.Squares[sibs[e.protoRNG.IntN(len(sibs))]]
	myRep, partnerRep := e.rep(sq), e.rep(partner)
	if partnerRep < 0 || myRep < 0 {
		return // a recovery sweep retired the square entirely
	}
	out := e.rt.RouteToNode(myRep, partnerRep, routing.RecoveryBFS)
	// On success paid is the transport layer's extra airtime
	// (retransmissions, duplicates); zero without delay/arq.
	ok, paid := e.run.Medium.DeliverRoundTrip(channel.NewPacket(e.run.Points, myRep, partnerRep, out.Hops, e.run.Clock.Ticks()))
	if !ok {
		e.run.Counter.Add(sim.CatFar, paid)
		e.res.RouteFailures++
		e.run.Tally.Loss(paid)
		e.run.Trace(trace.KindLoss, sq.ID, myRep, partnerRep, paid)
		return
	}
	hops := out.Hops + paid
	delivered := out.Delivered
	if delivered {
		back := e.rt.RouteToNode(partnerRep, myRep, routing.RecoveryBFS)
		hops += back.Hops
		delivered = back.Delivered
	}
	e.run.Counter.Add(sim.CatFar, hops)
	if !delivered {
		e.res.RouteFailures++
		return
	}
	xi, xj := e.x[myRep], e.x[partnerRep]
	coeff := e.opt.Beta * sq.Expected
	e.run.Tracker.SetPair(myRep, partnerRep, xi+coeff*(xj-xi), xj+coeff*(xi-xj))
	e.res.FarExchanges++
	e.run.Tally.FarExchange(hops)
	e.run.Trace(trace.KindFar, sq.ID, myRep, partnerRep, hops)
	// §4.2 Far step 5: the partner's counter resets too, re-activating its
	// subtree for re-averaging.
	e.count[partner.ID] = 0
}

// near performs one local exchange (procedure Near): average with a
// uniformly random neighbour inside the same leaf square.
func (e *asyncEngine) near(s int32) {
	cands := e.st.leafNbrs(s)
	var v int32
	cost := 2
	switch {
	// Short-circuit keeps the representative lookup off the common path:
	// only bridge/orphan nodes (repair > 0, rare) consult it.
	case e.st.repair[s] > 0 && e.view.Rep(int(e.h.NodeLeaf[s])) >= 0:
		v = e.view.Rep(int(e.h.NodeLeaf[s]))
		cost = 2 * int(e.st.repair[s])
	case len(cands) > 0:
		v = cands[e.protoRNG.IntN(len(cands))]
	default:
		return
	}
	// The perfect medium's verdict is read inline (DESIGN.md §7).
	ok, paid := true, 0
	if !e.run.Medium.Perfect() {
		ok, paid = e.run.Medium.DeliverHop(channel.NewPacket(e.run.Points, s, v, 1, e.run.Clock.Ticks()))
	}
	if !ok {
		e.run.Counter.Add(sim.CatNear, paid) // lost outbound value
		e.run.TraceLoss(s, v, paid)
		return
	}
	avg := (e.x[s] + e.x[v]) / 2
	if t := e.run.Tracker; t.PairDue() {
		t.SetPair(s, v, avg, avg)
	} else {
		t.SetPairClear(s, v, avg, avg)
	}
	// paid on success is the transport layer's extra airtime
	// (retransmissions, duplicates); zero without delay/arq.
	e.run.Counter.Add(sim.CatNear, cost+paid)
	e.res.NearExchanges++
	e.run.Trace(trace.KindNear, int(e.h.NodeLeaf[s]), s, v, cost+paid)
}
