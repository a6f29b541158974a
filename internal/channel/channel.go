// Package channel models the radio medium every gossip engine transmits
// through: per-packet delivery decisions (loss) and a node-liveness view
// (churn). Engines route every data-packet delivery through a Channel
// instead of hand-rolling inline Bernoulli checks, so a new fault model —
// bursty loss, spatially correlated jamming, partitions, crash-stop
// failures, revival — becomes available to every algorithm and the whole
// sweep grid at once.
//
// The three delivery methods mirror the three packet shapes the engines
// use: a single-hop exchange with a graph neighbour (DeliverHop), one leg
// of a multi-hop greedy route (DeliverRoute), and a representative
// round trip out-and-back (DeliverRoundTrip). Each receives a Packet —
// the delivery's full spatial and temporal context, not bare node ids —
// and reports whether the packet survived and, when it did not, how many
// transmissions were paid before it died — lost packets still cost radio
// energy. The context is what lets geometry-aware media (field.go) lose
// packets by where they travel and when, the failure mode geometric
// sensor deployments actually exhibit. See DESIGN.md §5 for the full
// contract.
//
// Determinism contract: a Channel draws randomness only from the RNG
// streams it was built over, in a fixed per-call order, so runs replay
// bit-for-bit. Bernoulli is additionally draw-compatible with the inline
// `LossRate` checks the engines used before this package existed: the
// same streams see the same draw sequence, keeping historical results
// bit-identical.
package channel

import (
	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

// Packet is the delivery context every Channel verdict receives: endpoint
// node ids and positions, the route length, and the simulation time of
// the decision. Non-spatial media (Bernoulli, GilbertElliott) read only
// ids and hop counts; spatial media (SpatialLoss, Partition) read
// positions and time. Engines therefore thread their geometry through
// every delivery call on a spatial medium — see sim.Harness.Packet for
// the standard constructor, which leaves positions zero otherwise.
type Packet struct {
	// Src and Dst are the endpoint node ids.
	Src, Dst int32
	// SrcPos and DstPos are the endpoint positions in the unit square.
	// Engines without position data may leave them zero; spatial media
	// then see all traffic at the origin.
	SrcPos, DstPos geo.Point
	// Hops is the route length in transmissions: 1 for a single-hop
	// exchange, the leg's hop count for DeliverRoute, and the outbound
	// hop count for DeliverRoundTrip (the return leg is assumed
	// symmetric).
	Hops int
	// Now is the engine's simulation time at the decision, in the same
	// unit as Advance (ticks for the clock-driven engines, transmissions
	// for the round-structured recursive engine).
	Now uint64
}

// Mid returns the midpoint of the src→dst segment — the cheap proxy for
// "where the route travels" that spatial fields sample in addition to
// the endpoints (greedy geographic routes hug the straight line between
// their endpoints).
func (p Packet) Mid() geo.Point {
	return geo.Pt((p.SrcPos.X+p.DstPos.X)/2, (p.SrcPos.Y+p.DstPos.Y)/2)
}

// Channel decides the fate of every data packet and reports node
// liveness. Implementations are single-goroutine, like the engines.
type Channel interface {
	// Advance moves the channel's clock to the global time now (engine
	// ticks for the clock-driven engines, transmissions for the
	// round-structured recursive engine). Time-dependent state — churn
	// up/down flips — is evaluated against the most recent Advance.
	Advance(now uint64)
	// Alive reports whether node i is currently up. Engines skip clock
	// ticks owned by dead nodes; deliveries to dead nodes fail inside
	// Deliver*.
	Alive(i int32) bool
	// DeliverHop decides a single-hop data packet (p.Hops is 1). When
	// the packet is lost, paid is the transmissions already spent (the
	// outbound message: 1).
	DeliverHop(p Packet) (ok bool, paid int)
	// DeliverRoute decides one leg of a multi-hop route of p.Hops hops.
	// When the packet is lost, paid is the cost up to the hop where it
	// died (uniform over the route).
	DeliverRoute(p Packet) (ok bool, paid int)
	// DeliverRoundTrip decides a representative round trip src→dst→src
	// whose outbound leg is p.Hops. When either leg is lost, paid is the
	// cost up to the failure point.
	DeliverRoundTrip(p Packet) (ok bool, paid int)
	// Name identifies the fault model for results and traces.
	Name() string
}

// Perfect is the lossless, failure-free medium: every packet delivered,
// every node alive, no randomness consumed.
type Perfect struct{}

// Advance implements Channel.
func (Perfect) Advance(uint64) {}

// Alive implements Channel.
func (Perfect) Alive(int32) bool { return true }

// DeliverHop implements Channel.
func (Perfect) DeliverHop(Packet) (bool, int) { return true, 0 }

// DeliverRoute implements Channel.
func (Perfect) DeliverRoute(Packet) (bool, int) { return true, 0 }

// DeliverRoundTrip implements Channel.
func (Perfect) DeliverRoundTrip(Packet) (bool, int) { return true, 0 }

// Name implements Channel.
func (Perfect) Name() string { return "perfect" }

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

func (b *Bernoulli) partial(hops int) int { return partialCost(b.R, hops) }

// Name implements Channel.
func (b *Bernoulli) Name() string { return "bernoulli" }

// partialCost returns the cost of a route that died at a uniformly
// random hop of a hops-hop journey.
func partialCost(r *rng.RNG, hops int) int {
	if hops <= 0 {
		return 0
	}
	return 1 + r.IntN(hops)
}

// GEParams parameterizes the Gilbert–Elliott burst-loss chain.
type GEParams struct {
	// PGoodToBad and PBadToGood are the per-packet state transition
	// probabilities. Their ratio sets the stationary fraction of time in
	// the bad state; their magnitudes set the burst length (mean bad
	// burst = 1/PBadToGood packets).
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the per-packet loss probabilities in each
	// state (LossGood << LossBad for a bursty medium).
	LossGood, LossBad float64
}

// StationaryLoss returns the long-run per-packet loss probability of the
// chain: the bad-state occupancy times LossBad plus the complement times
// LossGood.
func (p GEParams) StationaryLoss() float64 {
	denom := p.PGoodToBad + p.PBadToGood
	if denom <= 0 {
		return p.LossGood
	}
	piBad := p.PGoodToBad / denom
	return piBad*p.LossBad + (1-piBad)*p.LossGood
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

// NewGilbertElliott builds the chain over r, starting in the Good state.
func NewGilbertElliott(p GEParams, r *rng.RNG) *GilbertElliott {
	return &GilbertElliott{params: p, r: r}
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

func (g *GilbertElliott) partial(hops int) int { return partialCost(g.r, hops) }

// Name implements Channel.
func (g *GilbertElliott) Name() string { return "gilbert-elliott" }

// Bad reports whether the chain currently sits in the Bad state (exposed
// for tests and diagnostics).
func (g *GilbertElliott) Bad() bool { return g.bad }

// ChurnParams parameterizes crash-stop node failure with optional
// revival. Durations are in the channel's Advance time unit (ticks for
// the clock-driven engines).
type ChurnParams struct {
	// MeanUp is the mean up-duration before a node crashes
	// (exponentially distributed, minimum 1).
	MeanUp float64
	// MeanDown is the mean down-duration before a crashed node revives
	// with its pre-crash state intact. Zero means crash-stop: dead nodes
	// never return.
	MeanDown float64
}

// Churn overlays crash-stop node failure (with optional revival) on an
// inner loss medium: packets to or from a dead node are lost regardless
// of the inner channel, and engines skip clock ticks owned by dead
// nodes. Each node follows its own alternating-renewal up/down schedule
// drawn lazily from a per-node substream, so liveness at any time is a
// pure function of (seed, node, time) — independent of query order.
//
// Churn is optionally adversarial: NewTargetedChurn restricts failures
// to a chosen node set (hierarchy representatives, high-degree hubs),
// the attack model that stresses exactly the nodes the paper's protocol
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

// NewChurn wraps inner with uniform churn over n nodes, drawing schedules
// from r.
func NewChurn(inner Channel, n int, p ChurnParams, r *rng.RNG) *Churn {
	return NewTargetedChurn(inner, n, p, nil, r)
}

// NewTargetedChurn wraps inner with churn restricted to the listed nodes;
// nodes outside targets never fail. nil targets means uniform churn over
// all n nodes.
func NewTargetedChurn(inner Channel, n int, p ChurnParams, targets []int32, r *rng.RNG) *Churn {
	if inner == nil {
		inner = Perfect{}
	}
	c := &Churn{inner: inner, params: p, nodes: make([]churnNode, n), seed: r.Seed()}
	if targets != nil {
		c.target = make([]bool, n)
		for _, t := range targets {
			c.target[t] = true
		}
	}
	return c
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

// AliveCount returns the number of nodes currently up.
func (c *Churn) AliveCount() int {
	count := 0
	for i := range c.nodes {
		if c.Alive(int32(i)) {
			count++
		}
	}
	return count
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

// Name implements Channel.
func (c *Churn) Name() string {
	if c.inner.Name() == "perfect" {
		return "churn"
	}
	return c.inner.Name() + "+churn"
}

// Compile-time interface checks.
var (
	_ Channel = Perfect{}
	_ Channel = (*Bernoulli)(nil)
	_ Channel = (*GilbertElliott)(nil)
	_ Channel = (*Churn)(nil)
)
