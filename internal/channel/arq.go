package channel

import (
	"fmt"

	"geogossip/internal/trace"
)

// ARQParams configures transport-level retransmission (stop-and-wait ARQ
// with exponential backoff).
type ARQParams struct {
	// Retries is the retransmission budget after the first attempt; 0
	// disables the stage.
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

// retry is the ARQ stage, entered when the first attempt of a delivery
// was lost having paid paid: the attempt is retried up to Retries times,
// each retry preceded by an ack-timeout wait of Timeout × Backoff^k plus
// a deterministic jitter draw (uniform in [0, wait/2), from a stream
// derived by name from the loss stream's seed — bit-reproducible and
// invisible to the loss sequence). Every retry re-runs the attempt
// stages (cut, fields, loss model, delay), so retries against a bursty
// (Gilbert–Elliott) or jammed medium genuinely re-sample the channel
// state, each retry re-pays medium latency, and every failed attempt's
// airtime accumulates into the delivery's transmission bill.
//
// Charge contract: on success, paid is the extra transmissions the
// transport layer spent beyond the exchange's base cost — the failed
// attempts' airtime plus any duplicate copies — which the engine adds to
// its success charge. On give-up the loss verdict stands, with paid the
// total airtime of all attempts; the engine accounts it through its
// normal loss path. Without the stage (Retries 0) no draw, wait, or
// charge changes, so transport-free runs stay byte-identical.
//
// Churn runs before this stage, so a delivery to a dead endpoint fails
// without consuming the retry budget — retransmitting at a crashed node
// is not the failure mode ARQ repairs.
func (m *Medium) retry(p *Packet, s shape, paid int) (bool, int) {
	total := paid
	wait := m.arq.Timeout
	for retry := 0; ; retry++ {
		// The outstanding attempt was lost: the ack timer runs out.
		m.tally.ARQTimeout()
		w := wait
		if wait > 0 {
			w += m.arqR.Float64() * wait / 2
		}
		m.tl.Add(w)
		m.tally.BackoffWait(w)
		if m.tracer != nil {
			m.tracer.Record(trace.Event{Kind: trace.KindTimeout, Square: -1, NodeA: p.Src, NodeB: p.Dst})
		}
		if retry == m.arq.Retries {
			// Budget exhausted: the loss verdict stands, billed for
			// every attempt's airtime.
			return false, total
		}
		m.tally.Retransmit()
		if m.tracer != nil {
			m.tracer.Record(trace.Event{Kind: trace.KindRetransmit, Square: -1, NodeA: p.Src, NodeB: p.Dst})
		}
		wait *= m.arq.Backoff
		ok, extra := m.attempt(p, s)
		if ok {
			return true, total + extra
		}
		total += extra
	}
}
