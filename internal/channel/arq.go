package channel

import (
	"fmt"

	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/trace"
)

// ARQParams configures transport-level retransmission (stop-and-wait ARQ
// with exponential backoff).
type ARQParams struct {
	// Retries is the retransmission budget after the first attempt; 0
	// disables the wrapper.
	Retries int
	// Timeout is the ack timeout before the first retry, in engine time
	// units. Each lost attempt waits out its (backed-off) timeout before
	// the next retry — or before the sender gives up.
	Timeout float64
	// Backoff multiplies the timeout after every retry (>= 1).
	Backoff float64
}

// IsZero reports whether ARQ is disabled.
func (a ARQParams) IsZero() bool { return a.Retries == 0 }

func (a ARQParams) validate() error {
	if a.Retries < 0 {
		return fmt.Errorf("channel: arq retries %d must not be negative", a.Retries)
	}
	if a.IsZero() {
		if a.Timeout != 0 || a.Backoff != 0 {
			return fmt.Errorf("channel: arq timeout/backoff (%v, %v) set without retries", a.Timeout, a.Backoff)
		}
		return nil
	}
	if a.Timeout < 0 {
		return fmt.Errorf("channel: arq timeout %v must not be negative", a.Timeout)
	}
	if a.Backoff < 1 {
		return fmt.Errorf("channel: arq backoff %v must be at least 1", a.Backoff)
	}
	return nil
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

// NewARQ wraps inner with retransmission, drawing jitter from r, adding
// waits to tl and counting timeouts, retries and waits in tally (either
// may be nil to discard them).
func NewARQ(inner Channel, params ARQParams, r *rng.RNG, tl *Timeline, tally *obs.Tally, tracer trace.Tracer) *ARQ {
	a := &ARQ{}
	a.reset(inner, params, r, tl, tally, tracer)
	return a
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

// Name implements Channel.
func (a *ARQ) Name() string {
	if a.inner.Name() == "perfect" {
		return "arq"
	}
	return a.inner.Name() + "+arq"
}

// Compile-time interface check.
var _ Channel = (*ARQ)(nil)
