package sim

import (
	"math"

	"geogossip/internal/channel"
	"geogossip/internal/geo"
	"geogossip/internal/metrics"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/trace"
)

// Harness bundles the per-run state every clock-driven engine previously
// assembled by hand: the Poisson clock, the incremental error tracker,
// transmission accounting, the convergence curve, the radio medium, and
// optional event tracing. Engines drive it as
//
//	h := sim.NewHarness(x, sim.HarnessConfig{...}, r.Stream("clock"))
//	for !h.Done() {
//	    s := h.Tick()
//	    if !h.Alive(s) { h.Sample(); continue }
//	    ... protocol step using h.Medium, h.Tracker, h.Counter ...
//	    h.Sample()
//	}
//	return h.Finish(name), nil
//
// which keeps the clock/tracker/counter/curve wiring — and its exact
// draw and sampling order — identical across engines. Tick is Clock.Draw
// followed by Advance; the boyd and push-sum engines split the two to
// run the same body as a two-phase pipeline (DESIGN.md §7):
//
//	for i, k := 0, 0; !h.Done(); i++ {
//	    if i == k { // phase 1: draw a batch ahead, touch its cache lines
//	        i, k = 0, min(depth, h.Stop.MaxTicks-h.Clock.Ticks())
//	        for j := range k { owner[j] = h.Clock.Draw() }
//	        ... draw partners (no churn only), read their state ...
//	    }
//	    h.Advance() // phase 2: apply the batch in tick order
//	    ... the loop body above with s = owner[i] ...
//	}
type Harness struct {
	// Stop is the termination rule (defaults already applied). Its
	// TargetErr is fixed for the run: Reset derives Done's threshold from
	// it. MaxTicks may change between ticks; Done reads it live.
	Stop StopRule
	// Clock assigns ticks to nodes.
	Clock *Clock
	// Tracker maintains the relative ℓ₂ error over x.
	Tracker *ErrTracker
	// Counter accumulates transmissions by category.
	Counter Counter
	// Curve is the sampled convergence trajectory.
	Curve metrics.Curve
	// Medium is the radio fault model every data packet goes through.
	Medium *channel.Medium
	// Router is the run's routing core: every greedy route and region
	// flood goes through it, so packet movement is memoized and
	// allocation-free on the warm path. Nil for engines that never route
	// (single-hop exchanges only).
	Router *routing.Router
	// Tracer receives protocol events; nil costs nothing.
	Tracer trace.Tracer
	// Scope receives metrics; nil costs nothing. Finish flushes the run's
	// totals and its Tally into it in one EndRun call.
	Scope *obs.Scope
	// Tally counts the run's per-event metrics (losses, recovery actions,
	// churn transitions, far exchanges, and through channel.Env the
	// transport layer's retries and latencies) in plain fields. Reset
	// zeroes it; Finish flushes it.
	Tally obs.Tally
	// Timeline is the transport layer's clock (DESIGN.md §12): Finish
	// folds its high-water completion time into SimSeconds. Nil or
	// inactive (no delay/arq components) changes nothing.
	Timeline *channel.Timeline
	// Points is the position table deliveries pass to channel.NewPacket
	// (HarnessConfig.Points): nil unless the medium is spatial.
	Points []geo.Point

	n     int
	every uint64
	// next is the next tick Sample records: the next multiple of every.
	next uint64
	// stop2 is Done's squared-deviation threshold (see stopDev2).
	stop2 float64
	// perfect is the medium a config without one runs on.
	perfect channel.Medium
}

// HarnessConfig configures NewHarness.
type HarnessConfig struct {
	// Stop bundles the termination conditions (WithDefaults is applied).
	Stop StopRule
	// RecordEvery samples the curve every RecordEvery ticks; zero
	// selects n.
	RecordEvery uint64
	// Medium is the radio fault model; nil selects the perfect medium.
	Medium *channel.Medium
	// Points holds node positions so deliveries can attach the spatial
	// context spatial fault models read; nil leaves positions zero.
	// Engines attach them only for spatial specs (see SpatialPoints):
	// no other medium reads Packet positions, so the two loads per
	// delivery would be wasted.
	Points []geo.Point
	// Router supplies the run's routing core (see Harness.Router).
	Router *routing.Router
	// Tracer optionally receives protocol events.
	Tracer trace.Tracer
	// Obs optionally receives metrics (see Harness.Scope).
	Obs *obs.Scope
	// Timeline optionally supplies the transport clock (see
	// Harness.Timeline). The engine resets it before building the medium.
	Timeline *channel.Timeline
}

// NewHarness builds the run state over x (n = len(x) > 0) with the clock
// drawing from clockRNG, and records the initial curve sample.
func NewHarness(x []float64, cfg HarnessConfig, clockRNG *rng.RNG) *Harness {
	h := &Harness{}
	h.Reset(x, cfg, clockRNG)
	return h
}

// Reset re-initializes the harness in place for a new run — the pooled
// path: a run state owns one Harness and Resets it per run, reusing the
// clock, the error tracker, and the curve's sample storage, so repeat
// runs on a network allocate no harness state. Behaviour (draws, samples,
// results) is bit-identical to a NewHarness run by construction.
func (h *Harness) Reset(x []float64, cfg HarnessConfig, clockRNG *rng.RNG) {
	medium := cfg.Medium
	if medium == nil {
		h.perfect = channel.Medium{}
		medium = &h.perfect
	}
	every := cfg.RecordEvery
	if every == 0 {
		every = uint64(len(x))
		if every == 0 {
			every = 1
		}
	}
	h.Stop = cfg.Stop.WithDefaults()
	if h.Clock == nil {
		h.Clock = NewClock(len(x), clockRNG)
	} else {
		h.Clock.Reset(len(x), clockRNG)
	}
	if h.Tracker == nil {
		h.Tracker = NewErrTracker(x)
	} else {
		h.Tracker.Reset(x)
	}
	h.Counter.Reset()
	h.Curve.Samples = h.Curve.Samples[:0]
	h.Medium = medium
	h.Router = cfg.Router
	h.Tracer = cfg.Tracer
	h.Scope = cfg.Obs
	h.Tally.Reset()
	h.Timeline = cfg.Timeline
	h.n = len(x)
	h.every = every
	h.next = every
	h.stop2 = stopDev2(h.Stop.TargetErr, h.Tracker.Norm0())
	h.Points = cfg.Points
	h.Curve.Record(0, 0, h.Tracker.Err())
}

// Done reports whether the run should stop: Stop.Done on the tracked
// error, decided on the squared deviation against the threshold Reset
// derived, so a tick takes no square root and no division.
func (h *Harness) Done() bool {
	return h.Tracker.Dev2() <= h.stop2 || h.Clock.Ticks() >= h.Stop.MaxTicks
}

// Tick advances the clock and the medium together and returns the node
// whose clock fired: Clock.Draw, then Advance.
func (h *Harness) Tick() int32 {
	s := h.Clock.Draw()
	h.Advance()
	return s
}

// Advance counts one tick whose owner was already drawn (Clock.Draw) and
// moves the medium to it. Transport completions that fell due since the
// last tick need no step of their own: the medium evaluates its
// time-dependent state when queried, against the latest Advance
// (channel.Channel.Advance).
func (h *Harness) Advance() {
	h.Clock.Bump(1)
	h.Medium.Advance(h.Clock.Ticks())
}

// SpatialPoints returns pts when spec has geometry-dependent components
// and nil otherwise: the HarnessConfig.Points rule. Only the jamming
// fields and the cut read Packet positions.
func SpatialPoints(spec channel.Spec, pts []geo.Point) []geo.Point {
	if spec.Spatial() {
		return pts
	}
	return nil
}

// Alive reports whether node i is up on the medium.
func (h *Harness) Alive(i int32) bool { return h.Medium.Alive(i) }

// Sample records a curve point when the tick count is a multiple of the
// sampling period. Call it once at the end of every loop iteration:
// ticks advance one at a time, so comparing with the next multiple
// replaces a division per tick.
func (h *Harness) Sample() {
	if t := h.Clock.Ticks(); t == h.next {
		h.next += h.every
		h.Curve.Record(t, h.Counter.Total(), h.Tracker.Err())
	}
}

// Trace records ev when a tracer is attached.
func (h *Harness) Trace(ev trace.Event) {
	if h.Tracer != nil {
		h.Tracer.Record(ev)
	}
}

// TraceLoss records a lost data packet between a and b costing paid,
// through both the tracer and the run's tally.
func (h *Harness) TraceLoss(a, b int32, paid int) {
	h.Tally.Loss(paid)
	if h.Tracer != nil {
		h.Tracer.Record(trace.Event{Kind: trace.KindLoss, Square: -1, NodeA: a, NodeB: b, Hops: paid})
	}
}

// Finite reports whether a run's final error is finite. The engine
// table fails a run that ends otherwise, so the engines flush such a
// run's metrics nowhere: a failed run stays out of the shared metrics.
func Finite(finalErr float64) bool {
	return !math.IsNaN(finalErr) && !math.IsInf(finalErr, 0)
}

// Finish resyncs the tracker, appends the final curve sample, and
// assembles the standard result (Converged = target error set and
// reached), flushing the run's metrics unless its final error is not
// Finite. The liveness mask is included when the medium killed nodes.
// The result's curve is a snapshot: a later Reset of a pooled harness
// cannot corrupt a result already handed out.
func (h *Harness) Finish(name string) *metrics.Result {
	h.Tracker.Resync()
	finalErr := h.Tracker.Err()
	h.Curve.Record(h.Clock.Ticks(), h.Counter.Total(), finalErr)
	converged := h.Stop.TargetErr > 0 && finalErr <= h.Stop.TargetErr
	if Finite(finalErr) {
		h.Scope.EndRun(&h.Tally, h.Counter.Get(CatNear), h.Counter.Get(CatFar),
			h.Counter.Get(CatControl), h.Counter.Get(CatFlood),
			h.Clock.Ticks(), converged, finalErr)
	}
	res := &metrics.Result{
		Algorithm:               name,
		N:                       h.n,
		Converged:               converged,
		FinalErr:                finalErr,
		Ticks:                   h.Clock.Ticks(),
		Transmissions:           h.Counter.Total(),
		TransmissionsByCategory: h.Counter.Breakdown(),
		Curve:                   h.Curve.Snapshot(),
		Alive:                   AliveMask(h.Medium, h.n),
	}
	res.SimSeconds = SimSeconds(h.Timeline, h.Clock.Ticks(), h.n)
	return res
}

// SimSeconds converts a run's terminal time — the latest of its final
// tick count and the timeline's last scheduled transport completion —
// into simulated seconds (ticks/n: each node's unit-rate Poisson clock
// ticks once per simulated second on average). Zero when the timeline is
// inactive, keeping transport-free results unchanged.
func SimSeconds(tl *channel.Timeline, ticks uint64, n int) float64 {
	if !tl.Active() || n <= 0 {
		return 0
	}
	t := float64(ticks)
	if high := tl.High(); high > t {
		t = high
	}
	return t / float64(n)
}

// AliveMask returns the per-node liveness of the medium at the current
// time, or nil when every node is up (the common, fault-free case).
func AliveMask(medium *channel.Medium, n int) []bool {
	allUp := true
	for i := 0; i < n; i++ {
		if !medium.Alive(int32(i)) {
			allUp = false
			break
		}
	}
	if allUp {
		return nil
	}
	mask := make([]bool, n)
	for i := 0; i < n; i++ {
		mask[i] = medium.Alive(int32(i))
	}
	return mask
}

// EmptyResult is the degenerate n = 0 run: converged, zero cost.
func EmptyResult(name string) *metrics.Result {
	return &metrics.Result{
		Algorithm:               name,
		Converged:               true,
		Curve:                   &metrics.Curve{},
		TransmissionsByCategory: (&Counter{}).Breakdown(),
	}
}
