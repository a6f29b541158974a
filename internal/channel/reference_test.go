package channel

import (
	"fmt"
	"math"

	"geogossip/internal/geo"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/trace"
)

// This file keeps the reference media: the nested Channel wrappers the
// Medium pipeline replaced, verbatim apart from their dropped Name
// methods and constructors (buildReference and refPool build them) and
// two renames (refPartialCost, and buildReference for the BuildWith that
// nested them). Each wrapper forwards Advance, Alive and Deliver* to the
// medium it wraps. TestMediumMatchesReference and
// FuzzMediumMatchesReference check the pipeline against them.

// Bernoulli loses every packet (or route leg) independently with
// probability P — the i.i.d. loss model the engines previously inlined.
//
// Draw compatibility: with P == 0 no randomness is consumed, and with
// P > 0 the draw sequence on the supplied stream exactly matches the
// historical inline checks (one Bernoulli per leg; on a lost multi-hop
// leg, one IntN for the failure point; single-hop losses draw no failure
// point), so pre-refactor results replay bit-identically.
type Bernoulli struct {
	// P is the per-packet (per-leg) loss probability in [0, 1].
	P float64
	// R is the stream losses are drawn from.
	R *rng.RNG
}

// Advance implements Channel.
func (b *Bernoulli) Advance(uint64) {}

// Alive implements Channel.
func (b *Bernoulli) Alive(int32) bool { return true }

// DeliverHop implements Channel.
func (b *Bernoulli) DeliverHop(Packet) (bool, int) {
	if b.P > 0 && b.R.Bernoulli(b.P) {
		return false, 1 // the outbound value was transmitted but lost
	}
	return true, 0
}

// DeliverRoute implements Channel.
func (b *Bernoulli) DeliverRoute(p Packet) (bool, int) {
	if b.P > 0 && b.R.Bernoulli(b.P) {
		return false, b.partial(p.Hops)
	}
	return true, 0
}

// DeliverRoundTrip implements Channel.
func (b *Bernoulli) DeliverRoundTrip(p Packet) (bool, int) {
	// One combined draw for the two legs: lost unless both survive.
	if b.P > 0 && b.R.Bernoulli(1-(1-b.P)*(1-b.P)) {
		return false, b.partial(2 * p.Hops)
	}
	return true, 0
}

func (b *Bernoulli) partial(hops int) int { return refPartialCost(b.R, hops) }

// refPartialCost returns the cost of a route that died at a uniformly
// random hop of a hops-hop journey.
func refPartialCost(r *rng.RNG, hops int) int {
	if hops <= 0 {
		return 0
	}
	return 1 + r.IntN(hops)
}

// GilbertElliott is a two-state Markov burst-loss medium: the channel
// wanders between a Good state (rare loss) and a Bad state (dense loss),
// advancing one chain step per packet decision. Unlike Bernoulli, losses
// cluster: a route that just lost a packet is likely to lose the next
// one too, which is what defeats protocols that rely on quick retries.
type GilbertElliott struct {
	params GEParams
	r      *rng.RNG
	bad    bool
}

// step advances the chain one packet and returns whether that packet is
// lost.
func (g *GilbertElliott) step() bool {
	if g.bad {
		if g.r.Bernoulli(g.params.PBadToGood) {
			g.bad = false
		}
	} else {
		if g.r.Bernoulli(g.params.PGoodToBad) {
			g.bad = true
		}
	}
	if g.bad {
		return g.r.Bernoulli(g.params.LossBad)
	}
	return g.r.Bernoulli(g.params.LossGood)
}

// Advance implements Channel.
func (g *GilbertElliott) Advance(uint64) {}

// Alive implements Channel.
func (g *GilbertElliott) Alive(int32) bool { return true }

// DeliverHop implements Channel.
func (g *GilbertElliott) DeliverHop(Packet) (bool, int) {
	if g.step() {
		return false, 1
	}
	return true, 0
}

// DeliverRoute implements Channel.
func (g *GilbertElliott) DeliverRoute(p Packet) (bool, int) {
	if g.step() {
		return false, g.partial(p.Hops)
	}
	return true, 0
}

// DeliverRoundTrip implements Channel.
func (g *GilbertElliott) DeliverRoundTrip(p Packet) (bool, int) {
	if g.step() { // outbound leg
		return false, g.partial(p.Hops)
	}
	if g.step() { // return leg
		return false, g.partial(p.Hops) + p.Hops
	}
	return true, 0
}

func (g *GilbertElliott) partial(hops int) int { return refPartialCost(g.r, hops) }

// Churn overlays crash-stop node failure (with optional revival) on an
// inner loss medium: packets to or from a dead node are lost regardless
// of the inner channel, and engines skip clock ticks owned by dead
// nodes. Each node follows its own alternating-renewal up/down schedule
// drawn lazily from a per-node substream, so liveness at any time is a
// pure function of (seed, node, time) — independent of query order.
//
// Churn is optionally adversarial: reset's targets restrict failures to
// a chosen node set (hierarchy representatives, high-degree hubs), the
// attack model that stresses exactly the nodes the paper's protocol
// depends on. Untargeted nodes never fail. A targeted node's schedule
// derivation is identical to the uniform case, so uniform churn
// (nil target set) remains draw-compatible with every pre-existing run.
type Churn struct {
	inner  Channel
	params ChurnParams
	now    uint64
	nodes  []churnNode
	seed   uint64
	// target marks churnable nodes; nil means every node (uniform churn).
	target []bool
	// targetBuf is the reusable backing for target in pooled channels.
	targetBuf []bool
}

type churnNode struct {
	r        *rng.RNG
	alive    bool
	nextFlip uint64
	started  bool
}

// reset re-initializes a pooled Churn in place, keeping the per-node
// schedule state so no node RNG is re-allocated: a node's schedule
// generator is reseeded lazily (see Alive) to the identical per-node seed
// a fresh Churn would derive.
func (c *Churn) reset(inner Channel, n int, p ChurnParams, targets []int32, r *rng.RNG) {
	if inner == nil {
		inner = Perfect{}
	}
	c.inner, c.params, c.now, c.seed = inner, p, 0, r.Seed()
	if cap(c.nodes) >= n {
		c.nodes = c.nodes[:n]
	} else {
		c.nodes = make([]churnNode, n)
	}
	for i := range c.nodes {
		nd := &c.nodes[i]
		nd.alive, nd.nextFlip, nd.started = false, 0, false // nd.r is kept for reseeding
	}
	c.target = nil
	if targets != nil {
		if cap(c.targetBuf) >= n {
			c.targetBuf = c.targetBuf[:n]
			clear(c.targetBuf)
		} else {
			c.targetBuf = make([]bool, n)
		}
		for _, t := range targets {
			c.targetBuf[t] = true
		}
		c.target = c.targetBuf
	}
}

// Advance implements Channel.
func (c *Churn) Advance(now uint64) {
	c.now = now
	c.inner.Advance(now)
}

// Alive implements Channel. The node's schedule is evaluated lazily up
// to the current time.
func (c *Churn) Alive(i int32) bool {
	if c.target != nil && !c.target[i] {
		return c.inner.Alive(i)
	}
	n := &c.nodes[i]
	if !n.started {
		n.started = true
		n.alive = true
		// Pooled channels keep the per-node generator across runs and
		// reseed it to the identical schedule seed a fresh one would get.
		if n.r == nil {
			n.r = rng.New(rng.Derive(c.seed, uint64(i)))
		} else {
			n.r.Reseed(rng.Derive(c.seed, uint64(i)))
		}
		n.nextFlip = c.duration(n.r, c.params.MeanUp)
	}
	for c.now >= n.nextFlip {
		if n.alive {
			n.alive = false
			if c.params.MeanDown <= 0 {
				n.nextFlip = ^uint64(0) // crash-stop: never revives
				break
			}
			n.nextFlip += c.duration(n.r, c.params.MeanDown)
		} else {
			n.alive = true
			n.nextFlip += c.duration(n.r, c.params.MeanUp)
		}
	}
	return n.alive
}

func (c *Churn) duration(r *rng.RNG, mean float64) uint64 {
	d := r.ExpFloat64() * mean
	if d < 1 {
		d = 1
	}
	return uint64(d)
}

// DeliverHop implements Channel.
func (c *Churn) DeliverHop(p Packet) (bool, int) {
	if !c.Alive(p.Src) {
		return false, 0
	}
	if !c.Alive(p.Dst) {
		return false, 1 // transmitted into the void
	}
	return c.inner.DeliverHop(p)
}

// DeliverRoute implements Channel.
func (c *Churn) DeliverRoute(p Packet) (bool, int) {
	if !c.Alive(p.Src) {
		return false, 0
	}
	if !c.Alive(p.Dst) {
		return false, p.Hops // traveled the route, found the endpoint dead
	}
	return c.inner.DeliverRoute(p)
}

// DeliverRoundTrip implements Channel.
func (c *Churn) DeliverRoundTrip(p Packet) (bool, int) {
	if !c.Alive(p.Src) {
		return false, 0
	}
	if !c.Alive(p.Dst) {
		return false, p.Hops // out leg traveled, partner dead, no return
	}
	return c.inner.DeliverRoundTrip(p)
}

// SpatialLoss overlays geometry-correlated loss on an inner medium: each
// delivery samples every active field at the packet's source, midpoint
// and destination (the midpoint standing in for the route's path, which
// greedy routing keeps close to the straight line) and takes the worst
// local probability per field; independent fields then compose as
// independent loss events. A packet that survives the fields still faces
// the inner channel.
//
// Draw discipline mirrors Bernoulli: one Bernoulli draw per delivery
// only when the combined probability is positive, plus one IntN draw for
// the failure point of a lost multi-hop leg — so traffic outside every
// field consumes no randomness.
//
// Hot-path structure: every delivery of a spatial-fault run evaluates
// every field at three sample points, so each field is precompiled into
// a fieldEval carrying the region's bounding box — points outside the
// box are rejected with four comparisons before any disk or polygon
// math — and a moving disk's reflected centre (the expensive part of
// its evaluation) is computed once per decision time, not once per
// sample point. Both are pure rearrangements: the loss probability per
// packet is bit-identical to evaluating FieldParams.LossAt per point.
type SpatialLoss struct {
	inner Channel
	evals []fieldEval
	r     *rng.RNG
}

// fieldEval is one field plus its precompiled fast-rejection state.
type fieldEval struct {
	f FieldParams
	// minX..maxY is the region's bounding box (inclusive): for disks the
	// centre ± radius, for polygons the vertex hull box. Recomputed per
	// decision time for moving disks, fixed otherwise.
	minX, minY, maxX, maxY float64
	// center is the disk centre the box was built around.
	center geo.Point
	// boxNow is the decision time the moving box corresponds to; primed
	// marks it valid (time zero is a legitimate Now).
	boxNow uint64
	primed bool
	moving bool
}

// reset re-initializes a pooled SpatialLoss in place, keeping the
// evaluator storage.
func (s *SpatialLoss) reset(inner Channel, fields []FieldParams, r *rng.RNG) {
	if inner == nil {
		inner = Perfect{}
	}
	if cap(s.evals) >= len(fields) {
		s.evals = s.evals[:len(fields)]
	} else {
		s.evals = make([]fieldEval, len(fields))
	}
	s.inner, s.r = inner, r
	for i, f := range fields {
		s.evals[i] = fieldEval{}
		s.initEval(&s.evals[i], f)
	}
}

// initEval fills one evaluator with its field and precompiled
// fast-rejection state.
func (s *SpatialLoss) initEval(ev *fieldEval, f FieldParams) {
	ev.f = f
	ev.moving = f.Moving()
	switch {
	case f.Kind == FieldDisk && !ev.moving:
		ev.center = f.Center
		ev.setDiskBox(f.Center, f.Radius)
	case f.Kind == FieldPolygon:
		ev.minX, ev.minY = math.Inf(1), math.Inf(1)
		ev.maxX, ev.maxY = math.Inf(-1), math.Inf(-1)
		for _, v := range f.Poly {
			ev.minX = math.Min(ev.minX, v.X)
			ev.minY = math.Min(ev.minY, v.Y)
			ev.maxX = math.Max(ev.maxX, v.X)
			ev.maxY = math.Max(ev.maxY, v.Y)
		}
	}
}

func (ev *fieldEval) setDiskBox(c geo.Point, radius float64) {
	ev.minX, ev.minY = c.X-radius, c.Y-radius
	ev.maxX, ev.maxY = c.X+radius, c.Y+radius
}

// outside reports whether p provably lies outside the field region (the
// bounding-box early-out). False only means "needs the exact test".
func (ev *fieldEval) outside(p geo.Point) bool {
	return p.X < ev.minX || p.X > ev.maxX || p.Y < ev.minY || p.Y > ev.maxY
}

// lossAtPoint is FieldParams.LossAt with the activity check hoisted and
// the disk centre supplied by the caller.
func (ev *fieldEval) lossAtPoint(p geo.Point) float64 {
	if ev.outside(p) {
		return 0
	}
	f := &ev.f
	switch f.Kind {
	case FieldDisk:
		if ev.center.Dist2(p) <= f.Radius*f.Radius {
			return f.Loss
		}
	case FieldPolygon:
		if geo.Polygon(f.Poly).Contains(p) {
			return f.Loss
		}
	}
	return 0
}

// lossAt combines the fields' local probabilities for the packet: per
// field the maximum over the three sample points, across fields the
// independent-events composition 1 − Π(1 − qᵢ).
func (s *SpatialLoss) lossAt(p Packet) float64 {
	survive := 1.0
	mid := p.Mid()
	for i := range s.evals {
		ev := &s.evals[i]
		f := &ev.f
		if f.Loss <= 0 || !f.Active(p.Now) {
			continue
		}
		if ev.moving && (!ev.primed || ev.boxNow != p.Now) {
			// One reflected-centre computation per decision time covers
			// all three sample points (and any further packet at the
			// same time).
			ev.center = f.CenterAt(p.Now)
			ev.setDiskBox(ev.center, f.Radius)
			ev.boxNow, ev.primed = p.Now, true
		}
		q := ev.lossAtPoint(p.SrcPos)
		if v := ev.lossAtPoint(mid); v > q {
			q = v
		}
		if v := ev.lossAtPoint(p.DstPos); v > q {
			q = v
		}
		survive *= 1 - q
	}
	return 1 - survive
}

// Advance implements Channel.
func (s *SpatialLoss) Advance(now uint64) { s.inner.Advance(now) }

// Alive implements Channel.
func (s *SpatialLoss) Alive(i int32) bool { return s.inner.Alive(i) }

// DeliverHop implements Channel.
func (s *SpatialLoss) DeliverHop(p Packet) (bool, int) {
	if q := s.lossAt(p); q > 0 && s.r.Bernoulli(q) {
		return false, 1
	}
	return s.inner.DeliverHop(p)
}

// DeliverRoute implements Channel.
func (s *SpatialLoss) DeliverRoute(p Packet) (bool, int) {
	if q := s.lossAt(p); q > 0 && s.r.Bernoulli(q) {
		return false, refPartialCost(s.r, p.Hops)
	}
	return s.inner.DeliverRoute(p)
}

// DeliverRoundTrip implements Channel.
func (s *SpatialLoss) DeliverRoundTrip(p Packet) (bool, int) {
	// Both legs cross the same geometry: lost unless both survive.
	if q := s.lossAt(p); q > 0 && s.r.Bernoulli(1-(1-q)*(1-q)) {
		return false, refPartialCost(s.r, 2*p.Hops)
	}
	return s.inner.DeliverRoundTrip(p)
}

// Partition drops every packet crossing an active cut line, consuming no
// randomness: a crossing route dies (approximately) at the cut, paying
// half its hops.
type Partition struct {
	inner Channel
	cut   CutParams
}

// Advance implements Channel.
func (c *Partition) Advance(now uint64) { c.inner.Advance(now) }

// Alive implements Channel.
func (c *Partition) Alive(i int32) bool { return c.inner.Alive(i) }

// DeliverHop implements Channel.
func (c *Partition) DeliverHop(p Packet) (bool, int) {
	if c.cut.Active(p.Now) && c.cut.Severs(p.SrcPos, p.DstPos) {
		return false, 1
	}
	return c.inner.DeliverHop(p)
}

// DeliverRoute implements Channel.
func (c *Partition) DeliverRoute(p Packet) (bool, int) {
	if c.cut.Active(p.Now) && c.cut.Severs(p.SrcPos, p.DstPos) {
		return false, (p.Hops + 1) / 2 // died at the cut, roughly midway
	}
	return c.inner.DeliverRoute(p)
}

// DeliverRoundTrip implements Channel.
func (c *Partition) DeliverRoundTrip(p Packet) (bool, int) {
	if c.cut.Active(p.Now) && c.cut.Severs(p.SrcPos, p.DstPos) {
		return false, (p.Hops + 1) / 2 // outbound leg died at the cut
	}
	return c.inner.DeliverRoundTrip(p)
}

// Delay overlays transport-time realism on an inner loss medium: every
// delivery decision accrues a per-hop latency draw (scaled by the leg
// count) into the run's Timeline, delivered packets are independently
// reordered with probability Reorder — the straggler waits out one extra
// medium traversal — and duplicated with probability Dup, charging the
// duplicate copy's airtime into the delivery's paid-extra transmissions.
//
// Draw discipline (fixed per-call order, so runs replay bit-for-bit):
// one delay draw per delivery decision — success or loss, a transmitted
// packet occupies the medium either way — then, on delivered packets
// only, one Bernoulli per enabled decorator (reorder first, then dup),
// with the reorder penalty adding a second delay draw when it fires.
// The latency draws come from a stream derived by name from the loss
// stream's seed, so enabling delay never perturbs the loss sequence.
type Delay struct {
	inner   Channel
	dist    DelayParams
	reorder float64
	dup     float64
	r       *rng.RNG
	tl      *Timeline
}

// reset re-initializes a pooled Delay in place.
func (d *Delay) reset(inner Channel, dist DelayParams, reorder, dup float64, r *rng.RNG, tl *Timeline) {
	if inner == nil {
		inner = Perfect{}
	}
	d.inner, d.dist, d.reorder, d.dup, d.r, d.tl = inner, dist, reorder, dup, r, tl
}

// sample draws one per-hop delay.
func (d *Delay) sample() float64 {
	switch d.dist.Kind {
	case DelayFixed:
		return d.dist.A
	case DelayUniform:
		return d.dist.A + (d.dist.B-d.dist.A)*d.r.Float64()
	case DelayExp:
		return d.r.ExpFloat64() * d.dist.A
	}
	return 0
}

// decorate applies the delay/reorder/dup decorators to an inner verdict:
// legs is the delivery's hop count for latency scaling, cost the
// transmission count one duplicate copy would pay.
func (d *Delay) decorate(ok bool, paid, legs, cost int) (bool, int) {
	if d.dist.Kind != DelayNone {
		lat := d.sample() * float64(legs)
		if ok && d.reorder > 0 && d.r.Bernoulli(d.reorder) {
			lat += d.sample() * float64(legs)
		}
		d.tl.Add(lat)
	}
	if ok && d.dup > 0 && d.r.Bernoulli(d.dup) {
		paid += cost
	}
	return ok, paid
}

// Advance implements Channel.
func (d *Delay) Advance(now uint64) { d.inner.Advance(now) }

// Alive implements Channel.
func (d *Delay) Alive(i int32) bool { return d.inner.Alive(i) }

// DeliverHop implements Channel.
func (d *Delay) DeliverHop(p Packet) (bool, int) {
	ok, paid := d.inner.DeliverHop(p)
	return d.decorate(ok, paid, 1, 1)
}

// DeliverRoute implements Channel.
func (d *Delay) DeliverRoute(p Packet) (bool, int) {
	ok, paid := d.inner.DeliverRoute(p)
	return d.decorate(ok, paid, p.Hops, p.Hops)
}

// DeliverRoundTrip implements Channel.
func (d *Delay) DeliverRoundTrip(p Packet) (bool, int) {
	ok, paid := d.inner.DeliverRoundTrip(p)
	return d.decorate(ok, paid, 2*p.Hops, 2*p.Hops)
}

// ARQ wraps any inner channel with transport-level retransmission: a
// failed hop/route delivery is retried up to Retries times, each retry
// preceded by an ack-timeout wait of Timeout x Backoff^k plus a
// deterministic jitter draw (uniform in [0, wait/2), from a stream
// derived by name from the loss stream's seed — bit-reproducible and
// invisible to the loss sequence). Every attempt re-runs the full inner
// decision, so retries against a bursty (Gilbert–Elliott) or jammed
// medium genuinely re-sample the channel state, and every failed
// attempt's airtime accumulates into the delivery's transmission bill.
//
// Charge contract: on success, paid is the extra transmissions the
// transport layer spent beyond the exchange's base cost — the failed
// attempts' airtime plus any inner extra (duplicate copies) — which the
// engine adds to its success charge. On give-up the inner loss verdict
// stands, with paid the total airtime of all attempts; the engine
// accounts it through its normal loss path. With the wrapper absent
// (Retries 0) no draw, wait, or charge changes, so transport-free runs
// stay byte-identical.
//
// Composition: ARQ sits outside delay (each retry re-pays medium
// latency) and inside churn (a dead endpoint fails the delivery without
// consuming the retry budget — retransmitting at a crashed node is not
// the failure mode ARQ repairs).
type ARQ struct {
	inner  Channel
	params ARQParams
	r      *rng.RNG
	tl     *Timeline
	tally  *obs.Tally
	tracer trace.Tracer
}

// reset re-initializes a pooled ARQ in place.
func (a *ARQ) reset(inner Channel, params ARQParams, r *rng.RNG, tl *Timeline, tally *obs.Tally, tracer trace.Tracer) {
	if inner == nil {
		inner = Perfect{}
	}
	a.inner, a.params, a.r, a.tl, a.tally, a.tracer = inner, params, r, tl, tally, tracer
}

const (
	deliverHop = iota
	deliverRoute
	deliverRoundTrip
)

func (a *ARQ) attempt(p Packet, shape int) (bool, int) {
	switch shape {
	case deliverHop:
		return a.inner.DeliverHop(p)
	case deliverRoute:
		return a.inner.DeliverRoute(p)
	default:
		return a.inner.DeliverRoundTrip(p)
	}
}

func (a *ARQ) deliver(p Packet, shape int) (bool, int) {
	ok, extra := a.attempt(p, shape)
	if ok {
		return true, extra
	}
	total := extra
	wait := a.params.Timeout
	for retry := 0; ; retry++ {
		// The outstanding attempt was lost: the ack timer runs out.
		a.tally.ARQTimeout()
		w := wait
		if wait > 0 {
			w += a.r.Float64() * wait / 2
		}
		a.tl.Add(w)
		a.tally.BackoffWait(w)
		if a.tracer != nil {
			a.tracer.Record(trace.Event{Kind: trace.KindTimeout, Square: -1, NodeA: p.Src, NodeB: p.Dst})
		}
		if retry == a.params.Retries {
			// Budget exhausted: the inner loss verdict stands, billed for
			// every attempt's airtime.
			return false, total
		}
		a.tally.Retransmit()
		if a.tracer != nil {
			a.tracer.Record(trace.Event{Kind: trace.KindRetransmit, Square: -1, NodeA: p.Src, NodeB: p.Dst})
		}
		wait *= a.params.Backoff
		ok, extra = a.attempt(p, shape)
		if ok {
			return true, total + extra
		}
		total += extra
	}
}

// Advance implements Channel.
func (a *ARQ) Advance(now uint64) { a.inner.Advance(now) }

// Alive implements Channel.
func (a *ARQ) Alive(i int32) bool { return a.inner.Alive(i) }

// DeliverHop implements Channel.
func (a *ARQ) DeliverHop(p Packet) (bool, int) { return a.deliver(p, deliverHop) }

// DeliverRoute implements Channel.
func (a *ARQ) DeliverRoute(p Packet) (bool, int) { return a.deliver(p, deliverRoute) }

// DeliverRoundTrip implements Channel.
func (a *ARQ) DeliverRoundTrip(p Packet) (bool, int) { return a.deliver(p, deliverRoundTrip) }

// Timed is the outermost transport bracket: it wraps the fully composed
// medium (including churn, so dead-endpoint short-circuits record no
// latency) and closes the latency the inner wrappers accumulated during
// each top-level Deliver* call on the timeline, counting it in the run's
// delivery-latency tally. Built only when the spec has transport
// components and the engine supplied a Timeline, so its per-delivery
// cost never touches transport-free runs.
type Timed struct {
	inner Channel
	tl    *Timeline
	tally *obs.Tally
}

// Advance implements Channel.
func (w *Timed) Advance(now uint64) { w.inner.Advance(now) }

// Alive implements Channel.
func (w *Timed) Alive(i int32) bool { return w.inner.Alive(i) }

// DeliverHop implements Channel.
func (w *Timed) DeliverHop(p Packet) (bool, int) {
	w.tl.begin()
	ok, paid := w.inner.DeliverHop(p)
	w.close(p)
	return ok, paid
}

// DeliverRoute implements Channel.
func (w *Timed) DeliverRoute(p Packet) (bool, int) {
	w.tl.begin()
	ok, paid := w.inner.DeliverRoute(p)
	w.close(p)
	return ok, paid
}

// DeliverRoundTrip implements Channel.
func (w *Timed) DeliverRoundTrip(p Packet) (bool, int) {
	w.tl.begin()
	ok, paid := w.inner.DeliverRoundTrip(p)
	w.close(p)
	return ok, paid
}

func (w *Timed) close(p Packet) {
	if lat := w.tl.finish(float64(p.Now)); lat > 0 {
		w.tally.DeliveryLatency(lat)
	}
}

// refPool holds the reference media's reusable wrapper structs, as Pool
// did before the pipeline replaced them.
type refPool struct {
	bern    Bernoulli
	ge      GilbertElliott
	spatial SpatialLoss
	part    Partition
	churn   Churn
	delay   Delay
	arq     ARQ
	timed   Timed
	// delayRNG and arqRNG are the kept transport streams, reseeded per
	// run to the identical derived seeds a fresh build would use.
	delayRNG, arqRNG *rng.RNG
}

// buildReference is the BuildWith the pipeline replaced: it nests the
// wrappers, inside-out, loss model → fields → partition → delay → ARQ →
// churn → Timed. A nil pool builds fresh wrappers.
func buildReference(s Spec, p *refPool, n int, env Env, lossRNG, churnRNG *rng.RNG) (Channel, error) {
	if s.Spatial() && len(env.Points) < n {
		return nil, fmt.Errorf("channel: spec %q has spatial components but the engine supplied %d of %d node positions", s, len(env.Points), n)
	}
	if p == nil {
		p = new(refPool)
	}
	var ch Channel = Perfect{}
	switch s.Loss {
	case LossBernoulli:
		p.bern = Bernoulli{P: s.LossRate, R: lossRNG}
		ch = &p.bern
	case LossGilbertElliott:
		p.ge = GilbertElliott{params: s.GE, r: lossRNG}
		ch = &p.ge
	}
	if len(s.Fields) > 0 {
		p.spatial.reset(ch, s.Fields, lossRNG)
		ch = &p.spatial
	}
	if s.HasCut() {
		p.part = Partition{inner: ch, cut: s.Cut}
		ch = &p.part
	}
	if s.HasDelayLayer() {
		p.delayRNG = reseed(p.delayRNG, rng.DeriveString(lossRNG.Seed(), "delay"))
		p.delay.reset(ch, s.Delay, s.Reorder, s.Dup, p.delayRNG, env.Timeline)
		ch = &p.delay
	}
	if !s.ARQ.IsZero() {
		p.arqRNG = reseed(p.arqRNG, rng.DeriveString(lossRNG.Seed(), "arq"))
		p.arq.reset(ch, s.ARQ, p.arqRNG, env.Timeline, env.Tally, env.Tracer)
		ch = &p.arq
	}
	if s.HasChurn() {
		var targets []int32
		switch s.ChurnTarget {
		case TargetReps:
			if env.Reps == nil {
				return nil, fmt.Errorf("channel: spec %q targets hierarchy representatives but the engine has no hierarchy", s)
			}
			targets = env.Reps
		case TargetHubs:
			if len(env.HubOrder) < s.HubCount {
				return nil, fmt.Errorf("channel: spec %q targets %d hubs but the engine supplied a degree order of %d nodes", s, s.HubCount, len(env.HubOrder))
			}
			targets = env.HubOrder[:s.HubCount]
		}
		p.churn.reset(ch, n, s.Churn, targets, churnRNG)
		ch = &p.churn
	}
	if s.HasTransport() && env.Timeline != nil {
		// Outermost bracket: every top-level delivery's accumulated
		// latency closes on the timeline as one completion.
		p.timed = Timed{inner: ch, tl: env.Timeline, tally: env.Tally}
		ch = &p.timed
	}
	return ch, nil
}
