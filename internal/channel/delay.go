package channel

import "fmt"

// DelayKind enumerates the per-hop transport delay distributions.
type DelayKind int

const (
	// DelayNone means instantaneous delivery (the historical model).
	DelayNone DelayKind = iota
	// DelayFixed is a constant per-hop delay of A time units.
	DelayFixed
	// DelayUniform is a per-hop delay uniform in [A, B).
	DelayUniform
	// DelayExp is an exponential per-hop delay with mean A.
	DelayExp
)

// String implements fmt.Stringer with the spec-grammar spelling.
func (k DelayKind) String() string {
	switch k {
	case DelayNone:
		return "none"
	case DelayFixed:
		return "fixed"
	case DelayUniform:
		return "uniform"
	case DelayExp:
		return "exp"
	default:
		return fmt.Sprintf("delay-kind(%d)", int(k))
	}
}

// DelayParams selects a per-hop transport delay distribution. The zero
// value means instantaneous delivery. A and B are distribution
// parameters in engine time units per hop: fixed uses A, uniform uses
// [A, B), exponential uses mean A (B unused).
type DelayParams struct {
	Kind DelayKind
	A, B float64
}

// IsZero reports whether the distribution is instantaneous delivery.
func (d DelayParams) IsZero() bool { return d.Kind == DelayNone }

// Mean returns the distribution's per-hop expectation.
func (d DelayParams) Mean() float64 {
	switch d.Kind {
	case DelayFixed:
		return d.A
	case DelayUniform:
		return (d.A + d.B) / 2
	case DelayExp:
		return d.A
	}
	return 0
}

func (d DelayParams) validate() error {
	switch d.Kind {
	case DelayNone:
		if d.A != 0 || d.B != 0 {
			return fmt.Errorf("channel: delay parameters (%v, %v) set without a distribution", d.A, d.B)
		}
	case DelayFixed:
		if d.A <= 0 {
			return fmt.Errorf("channel: fixed delay %v must be positive", d.A)
		}
		if d.B != 0 {
			return fmt.Errorf("channel: fixed delay takes one parameter, got second %v", d.B)
		}
	case DelayUniform:
		if d.A < 0 || d.B <= d.A {
			return fmt.Errorf("channel: uniform delay bounds [%v, %v) must satisfy 0 <= lo < hi", d.A, d.B)
		}
	case DelayExp:
		if d.A <= 0 {
			return fmt.Errorf("channel: exponential delay mean %v must be positive", d.A)
		}
		if d.B != 0 {
			return fmt.Errorf("channel: exponential delay takes one parameter, got second %v", d.B)
		}
	default:
		return fmt.Errorf("channel: unknown delay kind %d", int(d.Kind))
	}
	return nil
}

// delayed is the delay stage, applied to each attempt's verdict: the
// attempt accrues a per-hop latency draw, scaled by its legs, into the
// run's Timeline; a delivered packet is independently reordered with
// probability Reorder — the straggler waits out one extra medium
// traversal — and duplicated with probability Dup, charging the
// duplicate copy's airtime (legs transmissions) into the delivery's
// paid-extra transmissions.
//
// Draw discipline (fixed per-call order, so runs replay bit-for-bit):
// one delay draw per attempt — success or loss, a transmitted packet
// occupies the medium either way — then, on delivered packets only, one
// Bernoulli per enabled decorator (reorder first, then dup), with the
// reorder penalty adding a second delay draw when it fires. The draws
// come from a stream derived by name from the loss stream's seed, so
// enabling delay never perturbs the loss sequence.
func (m *Medium) delayed(ok bool, paid, legs int) (bool, int) {
	if m.delay.Kind != DelayNone {
		lat := m.sampleDelay() * float64(legs)
		if ok && m.reorder > 0 && m.delayR.Bernoulli(m.reorder) {
			lat += m.sampleDelay() * float64(legs)
		}
		m.tl.Add(lat)
	}
	if ok && m.dup > 0 && m.delayR.Bernoulli(m.dup) {
		paid += legs
	}
	return ok, paid
}

// sampleDelay draws one per-hop delay.
func (m *Medium) sampleDelay() float64 {
	switch m.delay.Kind {
	case DelayFixed:
		return m.delay.A
	case DelayUniform:
		return m.delay.A + (m.delay.B-m.delay.A)*m.delayR.Float64()
	case DelayExp:
		return m.delayR.ExpFloat64() * m.delay.A
	}
	return 0
}
