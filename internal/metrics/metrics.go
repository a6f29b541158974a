// Package metrics records convergence trajectories: (transmissions,
// relative error) samples taken as an algorithm runs, plus utilities to
// summarize and down-sample them for reporting.
package metrics

import (
	"fmt"
	"math"
)

// Sample is one point of a convergence trajectory.
type Sample struct {
	Ticks         uint64
	Transmissions uint64
	Err           float64
}

// Curve is a convergence trajectory in sampling order.
type Curve struct {
	Samples []Sample
}

// Record appends a sample.
func (c *Curve) Record(ticks, transmissions uint64, err float64) {
	c.Samples = append(c.Samples, Sample{Ticks: ticks, Transmissions: transmissions, Err: err})
}

// Len returns the number of samples.
func (c *Curve) Len() int { return len(c.Samples) }

// Snapshot returns an independent copy of the curve. Pooled run states
// truncate and refill their curve storage across runs; results must hold
// a snapshot, never the live curve.
func (c *Curve) Snapshot() *Curve {
	return &Curve{Samples: append([]Sample(nil), c.Samples...)}
}

// Last returns the final sample and true, or a zero sample and false when
// empty.
func (c *Curve) Last() (Sample, bool) {
	if len(c.Samples) == 0 {
		return Sample{}, false
	}
	return c.Samples[len(c.Samples)-1], true
}

// TransmissionsAt returns the transmission count of the first sample whose
// error is at or below target, and whether one exists. Curves are sampled
// periodically, so this overestimates the true crossing by at most one
// sampling interval.
func (c *Curve) TransmissionsAt(target float64) (uint64, bool) {
	for _, s := range c.Samples {
		if s.Err <= target {
			return s.Transmissions, true
		}
	}
	return 0, false
}

// Downsample returns a curve with at most maxPoints samples, keeping the
// first and last and thinning uniformly in between. It returns the
// receiver when already small enough.
func (c *Curve) Downsample(maxPoints int) *Curve {
	if maxPoints <= 0 || len(c.Samples) <= maxPoints {
		return c
	}
	out := &Curve{Samples: make([]Sample, 0, maxPoints)}
	step := float64(len(c.Samples)-1) / float64(maxPoints-1)
	for i := 0; i < maxPoints; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= len(c.Samples) {
			idx = len(c.Samples) - 1
		}
		out.Samples = append(out.Samples, c.Samples[idx])
	}
	return out
}

// Validate checks monotonicity invariants every well-formed trajectory
// satisfies: ticks and transmissions never decrease, errors are finite
// and non-negative.
func (c *Curve) Validate() error {
	var prev Sample
	for i, s := range c.Samples {
		if math.IsNaN(s.Err) || math.IsInf(s.Err, 0) || s.Err < 0 {
			return fmt.Errorf("metrics: sample %d has invalid error %v", i, s.Err)
		}
		if i > 0 {
			if s.Ticks < prev.Ticks {
				return fmt.Errorf("metrics: sample %d ticks decreased (%d -> %d)", i, prev.Ticks, s.Ticks)
			}
			if s.Transmissions < prev.Transmissions {
				return fmt.Errorf("metrics: sample %d transmissions decreased (%d -> %d)", i, prev.Transmissions, s.Transmissions)
			}
		}
		prev = s
	}
	return nil
}

// Result is the outcome of one algorithm run.
type Result struct {
	// Algorithm names the protocol that produced the run.
	Algorithm string
	// N is the network size.
	N int
	// Converged reports whether the target error was reached before the
	// tick limit.
	Converged bool
	// FinalErr is the relative ℓ₂ error at termination.
	FinalErr float64
	// Ticks is the number of global clock ticks consumed.
	Ticks uint64
	// Transmissions is the total transmission count.
	Transmissions uint64
	// TransmissionsByCategory breaks the total down (near/far/control/
	// flood).
	TransmissionsByCategory map[string]uint64
	// Curve is the sampled trajectory (may be empty if sampling was
	// disabled).
	Curve *Curve
	// Alive is the per-node liveness at termination under a churn fault
	// model; nil when every node was up (any fault-free or loss-only
	// run). Dead nodes hold their last pre-crash value.
	Alive []bool
	// Reelections counts representative re-elections performed by the
	// recovery protocol (affine engines with recovery enabled).
	Reelections uint64
	// Resyncs counts restart-from-neighbor state resyncs after node
	// revival (engines with recovery enabled).
	Resyncs uint64
	// SimSeconds is the run's wall-clock convergence time in simulated
	// seconds — the latest of the final clock tick and the last transport
	// delivery completion, divided by n (each node's unit-rate Poisson
	// clock ticks once per simulated second on average). Zero unless the
	// fault spec has transport components (delay/arq), which activate the
	// timeline; see DESIGN.md §12.
	SimSeconds float64
}

// String implements fmt.Stringer with a one-line summary.
func (r *Result) String() string {
	status := "converged"
	if !r.Converged {
		status = "NOT converged"
	}
	return fmt.Sprintf("%s n=%d: %s err=%.3g ticks=%d transmissions=%d",
		r.Algorithm, r.N, status, r.FinalErr, r.Ticks, r.Transmissions)
}
