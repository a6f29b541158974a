// Package channel models the radio medium every gossip engine transmits
// through: per-packet delivery decisions (loss) and a node-liveness view
// (churn). Engines route every data-packet delivery through a Medium
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
// energy. The context is what lets the jamming fields and the cut
// (field.go) lose packets by where they travel and when, the failure
// mode geometric sensor deployments actually exhibit. See DESIGN.md §5
// for the full contract.
//
// Determinism contract: a Medium draws randomness only from the RNG
// streams it was built over, in a fixed per-call order, so runs replay
// bit-for-bit. The Bernoulli loss model is additionally draw-compatible
// with the inline `LossRate` checks the engines used before this package
// existed: the same streams see the same draw sequence, keeping
// historical results bit-identical.
package channel

import "geogossip/internal/geo"

// Packet is the delivery context every delivery verdict receives:
// endpoint node ids and positions, the route length, and the simulation
// time of the decision. The loss models and churn read only ids and hop
// counts; the jamming fields and the cut read positions and time.
// Engines therefore thread their geometry through every delivery call on
// a spatial medium — see NewPacket, the standard constructor, which
// leaves positions zero otherwise.
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

// NewPacket returns the context of a src→dst delivery of hops hops
// decided at time now, taking endpoint positions from pts. Engines pass
// pts only on spatial media (Spec.Spatial); on the others pts is nil, and
// the positions stay zero without being loaded. Call it in the Deliver*
// argument itself: a packet built elsewhere and handed on — patched field
// by field, or returned through a helper — is copied into the call by
// wider loads that stall on the narrower stores just made (DESIGN.md §7).
func NewPacket(pts []geo.Point, src, dst int32, hops int, now uint64) Packet {
	if pts == nil {
		return Packet{Src: src, Dst: dst, Hops: hops, Now: now}
	}
	return Packet{Src: src, Dst: dst, SrcPos: pts[src], DstPos: pts[dst], Hops: hops, Now: now}
}

// Mid returns the midpoint of the src→dst segment — the cheap proxy for
// "where the route travels" that spatial fields sample in addition to
// the endpoints (greedy geographic routes hug the straight line between
// their endpoints). It takes a pointer: on a packet held by pointer, a
// value receiver would copy all six fields to read four.
func (p *Packet) Mid() geo.Point {
	return geo.Pt((p.SrcPos.X+p.DstPos.X)/2, (p.SrcPos.Y+p.DstPos.Y)/2)
}

// Channel is the method set of a radio medium: it decides the fate of
// every data packet and reports node liveness. Medium, the medium every
// Spec builds, and Perfect implement it; engines call the concrete
// *Medium. Implementations are single-goroutine, like the engines.
type Channel interface {
	// Advance moves the channel's clock to the global time now (engine
	// ticks for the clock-driven engines, transmissions for the
	// round-structured recursive engine). A later Advance replaces the
	// earlier ones: implementations only record the time, and
	// time-dependent state — churn up/down flips — is evaluated when the
	// medium is queried (Alive, Deliver*), against the most recent
	// Advance. A run of Advance calls with no query between them is
	// therefore the same as its last call alone.
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
}

// Perfect is the lossless, failure-free medium as a bare Channel: every
// packet delivered, every node alive, no randomness consumed. The zero
// Medium behaves the same; engines hold a *Medium.
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
