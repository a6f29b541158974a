package channel

import (
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/trace"
)

// Medium is the radio medium a Spec builds (Spec.BuildWith): one
// concrete pipeline that runs the spec's stages with direct calls, in
// place on a Pool. Engines hold a *Medium and call Advance and Alive on
// every exchange, whatever the spec, and Deliver* on every exchange over
// a medium that is not Perfect (DESIGN.md §7); a stage the spec lacks
// costs a flag test. The zero Medium is the perfect medium: every
// packet delivered, every node alive, no randomness consumed.
//
// A delivery runs the stages in one order (DESIGN.md §12):
//
//	Timed bracket → churn → ARQ retries → [cut → fields → loss model → delay/reorder/dup]
//
// The bracket closes on the timeline the latency the stages inside it
// accumulated; churn fails a delivery with a dead endpoint before ARQ
// can spend a retry on it; ARQ re-runs the bracketed attempt stages on
// every retry. A spec has at most one component per stage
// (Spec.Compose), jamming fields aside, which the fields stage
// evaluates together.
type Medium struct {
	stages stage
	// now is the latest Advance, the time churn schedules are evaluated
	// at; the other stages read Packet.Now.
	now uint64

	// The loss model and the jamming fields draw from the loss stream.
	lossR  *rng.RNG
	lossP  float64 // the Bernoulli per-leg loss probability
	ge     GEParams
	bad    bool // the Gilbert–Elliott chain sits in its Bad state
	fields []jammer
	cut    CutParams

	delay        DelayParams
	reorder, dup float64
	delayR       *rng.RNG

	arq  ARQParams
	arqR *rng.RNG

	churn     ChurnParams
	churnSeed uint64
	nodes     []nodeChurn
	// target marks churnable nodes; nil means every node (uniform churn).
	// targetBuf is its storage, kept across pooled builds.
	target, targetBuf []bool

	// tl, tally and tracer are the run-local sinks Env supplies; each
	// may be nil.
	tl     *Timeline
	tally  *obs.Tally
	tracer trace.Tracer
}

// stage flags the components a Medium runs. No flag is the perfect
// medium.
type stage uint8

const (
	stageBernoulli stage = 1 << iota
	stageGE
	stageFields
	stageCut
	stageDelay
	stageARQ
	stageChurn
	stageTimed

	// outer are the stages around an attempt; without them a delivery
	// is one attempt.
	outer = stageTimed | stageChurn | stageARQ
)

// shape is a delivery's packet shape: the Deliver* method it came
// through.
type shape uint8

const (
	shapeHop shape = iota
	shapeRoute
	shapeRoundTrip
)

// legs returns the transmissions one attempt of the shape makes: the
// hop, the route's hops, or both legs of the round trip.
func (s shape) legs(hops int) int {
	switch s {
	case shapeHop:
		return 1
	case shapeRoute:
		return hops
	}
	return 2 * hops
}

// both returns the loss probability of a delivery whose legs are each
// lost with probability q: q for a hop or a route leg, 1 − (1 − q)² for a
// round trip, which is lost unless both legs survive.
func (s shape) both(q float64) float64 {
	if s == shapeRoundTrip {
		return 1 - (1-q)*(1-q)
	}
	return q
}

// Advance implements Channel. It only records the time (Channel.Advance).
func (m *Medium) Advance(now uint64) { m.now = now }

// Alive implements Channel.
func (m *Medium) Alive(i int32) bool {
	return m.stages&stageChurn == 0 || m.up(i)
}

// Perfect reports whether m is the perfect medium, whose Deliver*
// verdict is always (true, 0) and draws nothing. An exchange loop reads
// that verdict through it, inline, and calls Deliver* only when it does
// not hold (DESIGN.md §7, "Fixed per-exchange cost").
func (m *Medium) Perfect() bool { return m.stages == 0 }

// DeliverHop implements Channel.
//
// The Deliver* methods are not inlined. Inlined, a call copies the
// packet its argument built into the method's own parameter, a copy of
// a six-field struct the compiler makes with 8- and 16-byte moves whose
// first load spans the 4-byte Src and Dst stores just made: a
// store-forwarding stall on every delivery (DESIGN.md §7). Called, the
// packet travels in registers, each field loaded as it was stored; the
// method stores it once and the stages read it through a pointer.
//
// Each method tests the stage flags once. The perfect medium returns at
// once (the engines' exchange loops test Perfect first and skip the
// call); a medium with no stage outside the attempt runs the attempt;
// the rest enter deliver.
//
//go:noinline
func (m *Medium) DeliverHop(p Packet) (bool, int) {
	switch {
	case m.stages == 0:
		return true, 0
	case m.stages&outer == 0:
		return m.attempt(&p, shapeHop)
	}
	return m.deliver(&p, shapeHop)
}

// DeliverRoute implements Channel (not inlined: see DeliverHop).
//
//go:noinline
func (m *Medium) DeliverRoute(p Packet) (bool, int) {
	switch {
	case m.stages == 0:
		return true, 0
	case m.stages&outer == 0:
		return m.attempt(&p, shapeRoute)
	}
	return m.deliver(&p, shapeRoute)
}

// DeliverRoundTrip implements Channel (not inlined: see DeliverHop).
//
//go:noinline
func (m *Medium) DeliverRoundTrip(p Packet) (bool, int) {
	switch {
	case m.stages == 0:
		return true, 0
	case m.stages&outer == 0:
		return m.attempt(&p, shapeRoundTrip)
	}
	return m.deliver(&p, shapeRoundTrip)
}

// deliver runs the stages outside the attempt: the Timed bracket, churn
// and ARQ.
//
// The Timed bracket, built only when the spec has transport components
// and the engine supplied a Timeline, closes the latency the delay and
// ARQ stages accumulated during the delivery as one completion on the
// timeline, counting it in the run's delivery-latency tally; a
// dead-endpoint short-circuit records none. Churn fails a delivery from
// a dead source unsent and one to a dead destination having paid its
// outbound transmissions, before ARQ can spend a retry on it.
func (m *Medium) deliver(p *Packet, s shape) (ok bool, paid int) {
	if m.stages&stageTimed != 0 {
		m.tl.begin()
	}
	switch {
	case m.stages&stageChurn != 0 && !m.up(p.Src):
		ok, paid = false, 0
	case m.stages&stageChurn != 0 && !m.up(p.Dst):
		ok, paid = false, p.Hops // travelled the (out) leg, found the endpoint dead
		if s == shapeHop {
			paid = 1 // transmitted into the void
		}
	default:
		ok, paid = m.attempt(p, s)
		if !ok && m.stages&stageARQ != 0 {
			ok, paid = m.retry(p, s, paid)
		}
	}
	if m.stages&stageTimed != 0 {
		if lat := m.tl.finish(float64(p.Now)); lat > 0 {
			m.tally.DeliveryLatency(lat)
		}
	}
	return ok, paid
}

// attempt is one transmission, the part every ARQ retry re-runs: the
// cut, the jamming fields and the loss model decide whether the packet
// survives, in that order, and the delay stage then acts on the verdict.
//
// The cut draws nothing: a crossing hop dies paying 1, a crossing route
// (or a round trip's out leg) dies at the cut, roughly midway. The
// fields and the Bernoulli model lose a delivery with one draw and, when
// a route or round trip is lost, one IntN for the hop it died at
// (failed); a lost hop pays 1 and draws no failure point — the draw
// sequence of the inline checks the engines used before this package
// existed. A zero loss probability draws nothing.
func (m *Medium) attempt(p *Packet, s shape) (ok bool, paid int) {
	ok = true
	switch {
	case m.stages&stageCut != 0 && m.cut.Active(p.Now) && m.cut.Severs(p.SrcPos, p.DstPos):
		ok, paid = false, (p.Hops+1)/2
		if s == shapeHop {
			paid = 1
		}
	case m.stages&stageFields != 0 && m.lossR.Bernoulli(s.both(m.fieldLoss(p))):
		ok, paid = false, m.failed(s, p.Hops)
	case m.stages&stageBernoulli != 0:
		if m.lossR.Bernoulli(s.both(m.lossP)) {
			ok, paid = false, m.failed(s, p.Hops)
		}
	case m.stages&stageGE != 0:
		ok, paid = m.burst(s, p.Hops)
	}
	if m.stages&stageDelay != 0 {
		return m.delayed(ok, paid, s.legs(p.Hops))
	}
	return ok, paid
}

// failed returns what a delivery of the shape lost to a fields or
// Bernoulli draw paid: 1 for a hop, else the hop it died at, drawn
// uniformly over its legs.
func (m *Medium) failed(s shape, hops int) int {
	if s == shapeHop {
		return 1
	}
	return partialCost(m.lossR, s.legs(hops))
}

// burst is the Gilbert–Elliott loss model: a two-state Markov chain that
// wanders between a Good state (rare loss) and a Bad state (dense loss),
// one step per leg decision. Unlike Bernoulli, losses cluster: a route
// that just lost a packet is likely to lose the next one too, which is
// what defeats protocols that rely on quick retries. Each step draws
// the transition out of the current state, then the loss in the state
// it reached. A round trip steps twice; a lost return leg pays the out
// leg's hops too.
func (m *Medium) burst(s shape, hops int) (bool, int) {
	legs := 1
	if s == shapeRoundTrip {
		legs = 2
	}
	for leg := 0; leg < legs; leg++ {
		if m.bad {
			if m.lossR.Bernoulli(m.ge.PBadToGood) {
				m.bad = false
			}
		} else if m.lossR.Bernoulli(m.ge.PGoodToBad) {
			m.bad = true
		}
		loss := m.ge.LossGood
		if m.bad {
			loss = m.ge.LossBad
		}
		if m.lossR.Bernoulli(loss) {
			if s == shapeHop {
				return false, 1
			}
			return false, partialCost(m.lossR, hops) + leg*hops
		}
	}
	return true, 0
}

// partialCost returns the cost of a route that died at a uniformly
// random hop of a hops-hop journey.
func partialCost(r *rng.RNG, hops int) int {
	if hops <= 0 {
		return 0
	}
	return 1 + r.IntN(hops)
}

// nodeChurn is one node's alternating-renewal up/down schedule.
type nodeChurn struct {
	r        *rng.RNG
	alive    bool
	nextFlip uint64
	started  bool
}

// resetChurn starts the churn stage over n nodes, keeping the per-node
// schedule state of earlier pooled builds so no node RNG is
// re-allocated: a node's schedule generator is reseeded lazily (see up)
// to the identical per-node seed a fresh build would derive. Only the
// targets churn; nil targets means every node does.
func (m *Medium) resetChurn(n int, p ChurnParams, targets []int32, r *rng.RNG) {
	m.churn, m.churnSeed = p, r.Seed()
	if cap(m.nodes) >= n {
		m.nodes = m.nodes[:n]
	} else {
		m.nodes = make([]nodeChurn, n)
	}
	for i := range m.nodes {
		nd := &m.nodes[i]
		nd.alive, nd.nextFlip, nd.started = false, 0, false // nd.r is kept for reseeding
	}
	m.target = nil
	if targets != nil {
		if cap(m.targetBuf) >= n {
			m.targetBuf = m.targetBuf[:n]
			clear(m.targetBuf)
		} else {
			m.targetBuf = make([]bool, n)
		}
		for _, t := range targets {
			m.targetBuf[t] = true
		}
		m.target = m.targetBuf
	}
}

// up is the churn stage's liveness: crash-stop node failure with
// optional revival. Each node follows its own alternating-renewal
// up/down schedule drawn lazily, up to the latest Advance, from a
// per-node substream, so liveness at any time is a pure function of
// (seed, node, time) — independent of query order. Targeted churn (reps
// or hubs) masks the churnable set without re-deriving any schedule, so
// a targeted node fails exactly when it would under uniform churn.
func (m *Medium) up(i int32) bool {
	if m.target != nil && !m.target[i] {
		return true
	}
	n := &m.nodes[i]
	if !n.started {
		n.started = true
		n.alive = true
		// Pooled media keep the per-node generator across runs and
		// reseed it to the identical schedule seed a fresh one would get.
		if n.r == nil {
			n.r = rng.New(rng.Derive(m.churnSeed, uint64(i)))
		} else {
			n.r.Reseed(rng.Derive(m.churnSeed, uint64(i)))
		}
		n.nextFlip = duration(n.r, m.churn.MeanUp)
	}
	for m.now >= n.nextFlip {
		if n.alive {
			n.alive = false
			if m.churn.MeanDown <= 0 {
				n.nextFlip = ^uint64(0) // crash-stop: never revives
				break
			}
			n.nextFlip += duration(n.r, m.churn.MeanDown)
		} else {
			n.alive = true
			n.nextFlip += duration(n.r, m.churn.MeanUp)
		}
	}
	return n.alive
}

// duration draws one exponential up or down period of the given mean,
// at least 1.
func duration(r *rng.RNG, mean float64) uint64 {
	d := r.ExpFloat64() * mean
	if d < 1 {
		d = 1
	}
	return uint64(d)
}

// Compile-time interface checks.
var (
	_ Channel = Perfect{}
	_ Channel = (*Medium)(nil)
)
