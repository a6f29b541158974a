package sim

import (
	"fmt"

	"geogossip/internal/channel"
	"geogossip/internal/obs"
	"geogossip/internal/routing"
	"geogossip/internal/trace"
)

// Options is the one options record of the five averaging engines
// (DESIGN.md §7, "Engine table"). S is the pooled run state of the
// engine family that reads it: core.RunState for the two affine
// engines, gossip.RunState for the three baselines, and the pair of
// both for the engine table. Each engine reads the fields that name it
// and ignores the rest. A zero field selects the engine's default.
type Options[S any] struct {
	// Stop bundles the termination conditions of the clock-driven
	// engines. affine-hierarchical has no clock and stops at Eps.
	Stop StopRule
	// Eps is the affine engines' target relative ℓ₂ accuracy ε₀ at the
	// root. It sets affine-hierarchical's stop and per-level targets,
	// and sizes affine-async's round budgets. Zero selects 1e-4 and 1e-2
	// respectively; the engine table fills it from Stop.TargetErr.
	Eps float64
	// EpsDecayFactor is affine-hierarchical's κ in the per-level
	// schedule ε_{r+1} = ε_r / (κ·sqrt(E#[□_r])) (DESIGN.md §4.1). Zero
	// selects 4; experiment E15 sweeps it.
	EpsDecayFactor float64
	// Beta scales the affine engines' coefficient Beta·E#[child]. Zero
	// selects 2/5 (core.DefaultBeta); experiment E11 sweeps it.
	Beta float64
	// Convex replaces affine-hierarchical's affine update with plain
	// averaging of the two representative values (ablation E12).
	Convex bool
	// Throttle is affine-async's round-serialization factor, the
	// stand-in for the paper's n^a; zero selects 8.
	Throttle float64
	// RoundsFactor scales affine-async's exchanges per round; zero
	// selects 1, and the engine table fills in 2 (DESIGN.md §7).
	RoundsFactor float64
	// LeafTicks is affine-async's leaf round budget in the leaf
	// representative's own clock ticks; zero selects 64.
	LeafTicks int
	// Sampling selects geographic gossip's partner mechanism; zero
	// selects SamplingRejection.
	Sampling Sampling
	// RecordEvery samples the convergence curve every RecordEvery ticks,
	// or far exchanges for affine-hierarchical, which has no clock. Zero
	// selects n, or 16 far exchanges.
	RecordEvery uint64
	// Faults selects the radio fault model of the data plane: a loss
	// process, spatial jamming fields, partition cuts, node churn and
	// transport stages. The zero Spec is the perfect medium. A lost
	// packet pays the transmissions made before the loss and applies no
	// update. Representative-targeted churn needs a hierarchy, so the
	// baselines reject it.
	Faults channel.Spec
	// Recover switches on each engine's recovery under churn:
	// representative re-election for the affine engines (on a
	// copy-on-write view, hier.RepView), restart-from-neighbour resync
	// for boyd and geographic. Push-sum ignores it: its mass bookkeeping
	// already survives churn. Off by default, so runs without it keep
	// their draws.
	Recover bool
	// Routes is the network's shared route/flood cache, read by the
	// affine engines; nil gives the run a fresh private cache. Routing
	// is a pure function of the graph, so sharing cannot change results.
	// The baselines ignore it: boyd and push-sum do not route, and
	// geographic's random endpoint pairs would only grow a cache
	// (DESIGN.md §6).
	Routes *routing.Cache
	// State is the engine family's reusable run state, so repeat runs
	// perform O(1) state allocations; nil gives the run a fresh private
	// one. A pooled run is draw- and result-identical to a fresh one
	// (DESIGN.md §7).
	State *S
	// Tracer, when non-nil, receives structured protocol events.
	Tracer trace.Tracer
	// Obs, when non-nil, receives the run's metrics in one flush at run
	// end (obs.Scope). Nil costs nothing.
	Obs *obs.Scope
}

// WithState returns o over the run state st of another engine family:
// every field but State carried over. It is the one field-by-field copy
// of the record, through which the engine table hands its options to
// an engine.
func WithState[T, S any](o Options[S], st *T) Options[T] {
	return Options[T]{
		Stop:           o.Stop,
		Eps:            o.Eps,
		EpsDecayFactor: o.EpsDecayFactor,
		Beta:           o.Beta,
		Convex:         o.Convex,
		Throttle:       o.Throttle,
		RoundsFactor:   o.RoundsFactor,
		LeafTicks:      o.LeafTicks,
		Sampling:       o.Sampling,
		RecordEvery:    o.RecordEvery,
		Faults:         o.Faults,
		Recover:        o.Recover,
		Routes:         o.Routes,
		State:          st,
		Tracer:         o.Tracer,
		Obs:            o.Obs,
	}
}

// Sampling selects how geographic gossip chooses long-range partners.
type Sampling int

const (
	// SamplingRejection is the faithful mechanism of [5]: route toward a
	// uniformly random position; the node nearest that position accepts
	// with probability proportional to its local density estimate
	// (degree), otherwise re-targets a fresh random position and the
	// packet wanders on. This approximately uniformizes the partner
	// distribution.
	SamplingRejection Sampling = iota + 1
	// SamplingUniformNode is the idealized mechanism rejection sampling
	// approximates: the partner is an exact uniform random node.
	SamplingUniformNode
)

// String implements fmt.Stringer.
func (s Sampling) String() string {
	switch s {
	case SamplingRejection:
		return "rejection"
	case SamplingUniformNode:
		return "uniform-node"
	default:
		return fmt.Sprintf("sampling(%d)", int(s))
	}
}
