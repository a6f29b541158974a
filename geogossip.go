// Package geogossip is a simulation library for gossip averaging on
// geometric random graphs, reproducing "Geographic Gossip on Geometric
// Random Graphs via Affine Combinations" (Narayanan, PODC 2007).
//
// A Network is a set of n sensors placed uniformly at random on the unit
// square, connected at the standard connectivity radius
// r = c·sqrt(log n / n). Each sensor holds a value; an Algorithm drives
// the values toward their global average while the library counts every
// radio transmission — single-hop exchanges, multi-hop greedy-routed
// packets, and control traffic.
//
// Four algorithm families are provided:
//
//   - Boyd: randomized nearest-neighbour gossip (Boyd et al., INFOCOM
//     2005), Õ(n²) transmissions.
//   - Geographic: geographic gossip with rejection sampling (Dimakis et
//     al., IPSN 2006), Õ(n^1.5) transmissions.
//   - PushSum: one-way push-sum averaging (Kempe–Dobra–Gehrke, FOCS
//     2003), loss- and churn-tolerant by mass conservation.
//   - AffineHierarchical / AffineAsync: the paper's hierarchical protocol
//     using non-convex affine combinations, n^{1+o(1)} transmissions
//     asymptotically; AffineAsync is the faithful event-driven §4
//     protocol, AffineHierarchical the round-structured §3 engine.
//
// Every engine transmits through a pluggable radio fault model — i.i.d.
// loss (WithLossRate), Gilbert–Elliott burst loss, spatially correlated
// jamming fields (static, scheduled and moving disks, convex polygons),
// partition/heal cut lines, and crash-stop node churn with optional
// revival — uniform or adversarially targeted at hierarchy
// representatives / high-degree hubs (WithFaults, WithChurn). The
// matching recovery protocols — representative re-election and
// restart-from-neighbor state resync — switch on with WithRecovery.
//
// Quickstart:
//
//	nw, err := geogossip.NewNetwork(1024, geogossip.WithSeed(7))
//	// handle err
//	values := make([]float64, nw.N())
//	// fill values with sensor measurements...
//	res, err := geogossip.AffineHierarchical(geogossip.WithTargetError(1e-3)).Run(nw, values)
//	// values now hold (approximately) their original mean everywhere;
//	// res reports transmissions, convergence, and the error trajectory.
//
// For whole comparison grids (algorithm × n × seed × loss × ...), Sweep
// expands a declarative SweepSpec into tasks and runs them concurrently
// with deterministic per-task seeding — bit-identical results at any
// worker count. See SweepSpec and cmd/sweep.
package geogossip

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"strconv"
	"strings"

	"geogossip/internal/channel"
	"geogossip/internal/engine"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// Network is an immutable simulated sensor network: node positions, the
// geometric connectivity graph, and the paper's recursive square
// hierarchy. Safe for concurrent use by multiple algorithm runs.
type Network struct {
	g *graph.Graph
	h *hier.Hierarchy
	// leafTarget and maxDepth record the hierarchy parameters so Save can
	// round-trip the exact construction.
	leafTarget float64
	maxDepth   int
}

// NetworkOption configures NewNetwork.
type NetworkOption func(*networkConfig)

type networkConfig struct {
	seed         uint64
	radiusMult   float64
	leafTarget   float64
	maxDepth     int
	buildWorkers int
}

// WithSeed sets the placement seed (default 1). The same (n, seed,
// options) always builds the same network.
func WithSeed(seed uint64) NetworkOption {
	return func(c *networkConfig) { c.seed = seed }
}

// WithRadiusMultiplier sets c in r = c·sqrt(log n / n) (default 1.5;
// c = 1 is the Gupta–Kumar connectivity threshold).
func WithRadiusMultiplier(c float64) NetworkOption {
	return func(cfg *networkConfig) { cfg.radiusMult = c }
}

// WithLeafTarget overrides the hierarchy's leaf occupancy target
// (default Θ(log n); see DESIGN.md §4.2 on the substitution for the
// paper's asymptotic (log n)^8 threshold). NewNetwork rejects a NaN or
// infinite target.
func WithLeafTarget(t float64) NetworkOption {
	return func(c *networkConfig) { c.leafTarget = t }
}

// WithFlatHierarchy caps the hierarchy at a single partition level (the
// flat ablation of the paper's recursive construction).
func WithFlatHierarchy() NetworkOption {
	return func(c *networkConfig) { c.maxDepth = 1 }
}

// WithBuildWorkers sizes the construction worker pool: the graph's
// per-node radius scan and the hierarchy's leaf/role tables shard across
// n goroutines (0 selects all cores, 1 builds serially). Every worker
// count builds the byte-identical network — construction parallelism is
// never part of the result — so the knob only trades wall-clock for
// cores on large instances (see README "Scale" for the n=10⁶ recipe).
func WithBuildWorkers(n int) NetworkOption {
	return func(c *networkConfig) { c.buildWorkers = n }
}

// ErrNotConnected is returned by NewNetwork when the sampled instance is
// disconnected (retry with another seed or a larger radius multiplier).
var ErrNotConnected = errors.New("geogossip: generated network is not connected")

// NewNetwork samples n sensor positions uniformly on the unit square and
// builds the connectivity graph and square hierarchy. It returns
// ErrNotConnected if the instance is disconnected, since none of the
// algorithms can average across components.
func NewNetwork(n int, opts ...NetworkOption) (*Network, error) {
	cfg := networkConfig{seed: 1, radiusMult: 1.5}
	for _, o := range opts {
		o(&cfg)
	}
	if math.IsNaN(cfg.leafTarget) || math.IsInf(cfg.leafTarget, 0) {
		return nil, fmt.Errorf("geogossip: WithLeafTarget(%v): leaf target must be finite", cfg.leafTarget)
	}
	g, err := graph.GenerateWorkers(n, cfg.radiusMult, rng.New(cfg.seed), cfg.buildWorkers)
	if err != nil {
		return nil, fmt.Errorf("geogossip: generate graph: %w", err)
	}
	if n > 1 && !g.IsConnected() {
		return nil, ErrNotConnected
	}
	h, err := hier.Build(g.Points(), hier.Config{LeafTarget: cfg.leafTarget, MaxDepth: cfg.maxDepth, Workers: cfg.buildWorkers})
	if err != nil {
		return nil, fmt.Errorf("geogossip: build hierarchy: %w", err)
	}
	return &Network{g: g, h: h, leafTarget: cfg.leafTarget, maxDepth: cfg.maxDepth}, nil
}

// N returns the number of sensors.
func (nw *Network) N() int { return nw.g.N() }

// Radius returns the connectivity radius.
func (nw *Network) Radius() float64 { return nw.g.Radius() }

// Edges returns the number of links.
func (nw *Network) Edges() int { return nw.g.Edges() }

// HierarchyLevels returns ℓ, the number of levels in the recursive
// partition (Θ(log log n)).
func (nw *Network) HierarchyLevels() int { return nw.h.Ell }

// Positions returns the sensor coordinates as (x, y) pairs.
func (nw *Network) Positions() [][2]float64 {
	out := make([][2]float64, nw.g.N())
	for i := range out {
		p := nw.g.Point(int32(i))
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

// MeanDegree returns the average number of neighbours per sensor.
func (nw *Network) MeanDegree() float64 { return nw.g.Degrees().Mean }

// NetworkFootprint breaks down a network's resident memory: the packed
// point array, the CSR adjacency, the spatial cell index, the lazily
// cached Voronoi areas (zero until a geographic run computes them), and
// the square hierarchy's tables.
type NetworkFootprint struct {
	PointsBytes    int
	AdjacencyBytes int
	IndexBytes     int
	VoronoiBytes   int
	HierarchyBytes int
}

// Total sums the footprint components.
func (f NetworkFootprint) Total() int {
	return f.PointsBytes + f.AdjacencyBytes + f.IndexBytes + f.VoronoiBytes + f.HierarchyBytes
}

// Footprint reports the network's resident memory breakdown — the
// bytes-per-node figure (Footprint().Total() / N()) the README "Scale"
// section quotes for n = 10⁶.
func (nw *Network) Footprint() NetworkFootprint {
	gf := nw.g.Footprint()
	return NetworkFootprint{
		PointsBytes:    gf.PointsBytes,
		AdjacencyBytes: gf.AdjBytes,
		IndexBytes:     gf.IndexBytes,
		VoronoiBytes:   gf.VoronoiBytes,
		HierarchyBytes: nw.h.Footprint(),
	}
}

// Result summarizes one averaging run.
type Result struct {
	// Algorithm names the protocol.
	Algorithm string
	// Converged reports whether the target error was reached.
	Converged bool
	// FinalErr is the final relative ℓ₂ distance from consensus.
	FinalErr float64
	// Transmissions is the total radio cost.
	Transmissions uint64
	// SimSeconds is the run's simulated wall-clock at termination: the
	// later of the final tick and the last delivery's completion (delayed
	// deliveries, ARQ backoff waits included) normalized per node, in the units of WithDelay /
	// WithARQ durations. Zero unless the run had a transport layer
	// (WithDelay, WithARQ, or a delay/reorder/dup/arq WithFaults
	// component).
	SimSeconds float64
	// Breakdown splits Transmissions by category (near/far/control/
	// flood).
	Breakdown map[string]uint64
	// Curve is the sampled (transmissions, relative error) trajectory.
	Curve [][2]float64
	// Alive is the per-node liveness at termination under a churn fault
	// model (WithChurn or a churn WithFaults spec); nil when every node
	// was up. Dead nodes hold their last pre-crash value.
	Alive []bool
	// Reelections counts representative re-elections and Resyncs counts
	// restart-from-neighbor state resyncs performed under WithRecovery
	// (both zero otherwise).
	Reelections uint64
	Resyncs     uint64
	// Metrics is the run's observability snapshot: every counter and
	// histogram bucket the engine reported, keyed by Prometheus
	// exposition name (e.g. `geogossip_losses_total{engine="boyd"}`).
	// Deterministic for a fixed seed — see README "Observability" for the
	// metric catalogue.
	Metrics map[string]float64
}

func fromMetrics(res *metrics.Result, reg *obs.Registry) *Result {
	out := &Result{
		Algorithm:     res.Algorithm,
		Converged:     res.Converged,
		FinalErr:      res.FinalErr,
		Transmissions: res.Transmissions,
		SimSeconds:    res.SimSeconds,
		Alive:         append([]bool(nil), res.Alive...),
		Reelections:   res.Reelections,
		Resyncs:       res.Resyncs,
		Metrics:       reg.Flatten(),
	}
	// Clone, not alias: callers own the returned Result and must not be
	// able to mutate the engine's internal metrics state through it.
	out.Breakdown = maps.Clone(res.TransmissionsByCategory)
	if res.Curve != nil {
		for _, s := range res.Curve.Samples {
			out.Curve = append(out.Curve, [2]float64{float64(s.Transmissions), s.Err})
		}
	}
	return out
}

// Algorithm runs a distributed averaging protocol over a network,
// mutating the supplied values in place toward their mean.
type Algorithm interface {
	// Name identifies the protocol.
	Name() string
	// Run executes the protocol. len(values) must equal nw.N(); values
	// are mutated in place.
	Run(nw *Network, values []float64) (*Result, error)
}

// RunOption configures an algorithm constructor.
type RunOption func(*runConfig)

type runConfig struct {
	// run is the engine configuration the options write; Run adds the
	// assembled fault spec and the run's metrics scope.
	run         engine.Config
	seed        uint64
	betaSet     bool
	throttleSet bool
	faults      string
	// shorthand holds the fault-spec text each medium shorthand option
	// lowers to, indexed like shorthandNames; "" adds no component.
	shorthand [len(shorthandNames)]string
	// optErr carries the first invalid option input; surfaced by validate
	// so constructors stay error-free.
	optErr error
}

// WithTargetError sets the relative ℓ₂ accuracy at which the run stops
// (default 1e-3). It must be positive and finite; Run reports an error
// otherwise.
func WithTargetError(eps float64) RunOption {
	return func(c *runConfig) { c.run.Stop.TargetErr = eps }
}

// WithMaxTicks caps the simulated clock ticks (default 200,000,000).
func WithMaxTicks(t uint64) RunOption {
	return func(c *runConfig) { c.run.Stop.MaxTicks = t }
}

// WithRunSeed seeds the protocol's randomness (default 1).
func WithRunSeed(seed uint64) RunOption {
	return func(c *runConfig) { c.seed = seed }
}

// WithBeta overrides the affine multiplier (default 2/5, the paper's
// value; only meaningful for the affine algorithms). It must be
// positive and finite; Run reports an error otherwise.
func WithBeta(beta float64) RunOption {
	return func(c *runConfig) { c.run.Beta = beta; c.betaSet = true }
}

// WithUniformSampling switches geographic gossip to idealized exact
// uniform partner sampling instead of rejection sampling.
func WithUniformSampling() RunOption {
	return func(c *runConfig) { c.run.Sampling = sim.SamplingUniformNode }
}

// WithThrottle sets the async protocol's round-serialization factor
// (default 8; stands in for the paper's n^a). It must be positive and
// finite; Run reports an error otherwise.
func WithThrottle(t float64) RunOption {
	return func(c *runConfig) { c.run.Throttle = t; c.throttleSet = true }
}

// The medium shorthand options. Each lowers to one component of the
// WithFaults grammar, which Run composes onto the WithFaults spec under
// the one composition rule (channel.Spec.Compose): a shorthand whose
// component the spec already has is an error naming the option. A later
// call of the same shorthand replaces an earlier one.
const (
	shorthandLossRate = iota
	shorthandDelay
	shorthandARQ
	shorthandChurn
)

var shorthandNames = [...]string{
	shorthandLossRate: "WithLossRate",
	shorthandDelay:    "WithDelay",
	shorthandARQ:      "WithARQ",
	shorthandChurn:    "WithChurn",
}

// lower sets the fault-spec text a medium shorthand option stands for.
func lower(option int, text string) RunOption {
	return func(c *runConfig) { c.shorthand[option] = text }
}

// specNumber formats v as spec text: exactly, and without the "+" that
// separates components ("+Inf" reads back as "Inf").
func specNumber(v float64) string {
	return strings.TrimPrefix(strconv.FormatFloat(v, 'f', -1, 64), "+")
}

// WithLossRate makes every data packet (single-hop exchange or route
// leg) independently lost with probability p — shorthand for the
// "bernoulli:p" fault model of WithFaults. Lost exchanges pay the
// transmissions made before the loss and apply no update; pair updates
// commit atomically, so the consensus value is preserved under arbitrary
// loss. Default 0, which adds no component. Run validates p ∈ [0, 1] and
// rejects combining it with a WithFaults loss model.
func WithLossRate(p float64) RunOption {
	if p == 0 {
		return lower(shorthandLossRate, "")
	}
	return lower(shorthandLossRate, "bernoulli:"+specNumber(p))
}

// WithFaults selects the radio fault model from a compact spec:
//
//	"perfect"                      lossless medium (the default)
//	"bernoulli:P"                  i.i.d. loss with probability P
//	"ge:PGB/PBG/EG/EB"             Gilbert–Elliott burst loss: the
//	                               channel flips Good→Bad with PGB and
//	                               Bad→Good with PBG per packet, losing
//	                               packets with probability EG (good)
//	                               or EB (bad)
//	"jam:CX/CY/R/LOSS"             jamming disk: packets whose source,
//	                               route midpoint or destination falls
//	                               inside the disk of radius R at
//	                               (CX, CY) are lost with probability
//	                               LOSS; append /FROM/UNTIL for a
//	                               one-shot active window and a further
//	                               /PERIOD for a repeating on/off cycle
//	"mjam:CX/CY/R/LOSS/VX/VY"      moving jammer: the disk travels at
//	                               (VX, VY) per time unit, reflecting
//	                               off the unit-square walls
//	"jampoly:LOSS/X1/Y1/X2/Y2/..." convex polygonal jamming region
//	                               (counter-clockwise vertices)
//	"cut:A/B/C/FROM/UNTIL"         partition/heal: during [FROM, UNTIL)
//	                               every packet crossing the line
//	                               a·x + b·y = c is dropped, then the
//	                               medium heals
//	"churn:UP/DOWN"                crash-stop node failure: nodes stay
//	                               up for Exp(UP) ticks, then down for
//	                               Exp(DOWN) ticks (DOWN = 0 means dead
//	                               forever)
//	"repchurn:UP/DOWN"             adversarial churn restricted to the
//	                               nodes holding hierarchy-representative
//	                               roles at run start (affine algorithms
//	                               only) — a decapitation strike;
//	                               successors installed by WithRecovery
//	                               re-election are not chased
//	"hubchurn:UP/DOWN/K"           adversarial churn restricted to the
//	                               K highest-degree nodes
//	"delay:fixed/D"                transport delay: every hop takes D
//	                               time units on the simulated clock
//	                               (see WithDelay); also
//	                               "delay:uniform/LO/HI" and
//	                               "delay:exp/MEAN"
//	"reorder:P"                    a delivered packet is re-queued with
//	                               an extra delay draw with probability
//	                               P (requires a delay model)
//	"dup:P"                        a delivered packet is duplicated with
//	                               probability P, paying its airtime
//	                               again
//	"arq:RETRIES/TIMEOUT/BACKOFF"  automatic repeat request: failed
//	                               deliveries retry up to RETRIES times
//	                               with exponential backoff (see
//	                               WithARQ)
//
// Components compose via "+", e.g.
// "bernoulli:0.2+jam:0.5/0.5/0.2/0.9+churn:50000/10000". The spec is
// validated at Run time. Churn durations, field windows and cut windows
// are engine time units: clock ticks for boyd, geographic, push-sum and
// affine-async; transmissions for the round-structured
// affine-hierarchical engine.
func WithFaults(spec string) RunOption {
	return func(c *runConfig) { c.faults = spec }
}

// WithDelay gives every delivery a per-hop transit time drawn from a
// delay model, advancing the run's simulated clock (Result.SimSeconds):
//
//	"fixed/D"        every hop takes exactly D time units
//	"uniform/LO/HI"  per-hop latency uniform on [LO, HI)
//	"exp/MEAN"       per-hop latency exponential with the given mean
//
// WithDelay(model) is the WithFaults component "delay:"+model, so
// "exp/0.5" here and a "delay:exp/0.5" fault component are the same
// layer; combining both is an error, and "" adds no component. Delay
// draws come from a dedicated RNG stream — adding a delay never perturbs
// the loss process or the protocol's draws. Run validates the model.
func WithDelay(model string) RunOption {
	if model == "" {
		return lower(shorthandDelay, "")
	}
	return lower(shorthandDelay, "delay:"+model)
}

// WithARQ wraps every delivery in an automatic-repeat-request loop: a
// failed delivery is retried up to retries times, waiting
// timeout·backoff^k (plus deterministic jitter) on the simulated clock
// before attempt k's retry. Retransmissions pay their airtime into
// Result.Transmissions — ARQ trades radio cost for reliability, and the
// observability layer counts retransmissions, timeouts and backoff wait
// (see README, metric catalogue). Equivalent to the
// "arq:RETRIES/TIMEOUT/BACKOFF" fault component; combining both is an
// error. Run validates the parameters (retries ≥ 1, timeout > 0,
// backoff ≥ 1).
func WithARQ(retries int, timeout, backoff float64) RunOption {
	return lower(shorthandARQ, fmt.Sprintf("arq:%d/%s/%s", retries, specNumber(timeout), specNumber(backoff)))
}

// WithRecovery enables the engines' fault-recovery protocols. For the
// affine algorithms: representative re-election — when a square's
// representative dies, the member nearest the square's centre among the
// survivors takes over (paying an election flood), so targeted churn
// against representatives no longer stalls the hierarchy — plus, for
// the async engine, control-state resync for revived nodes. For boyd
// and geographic: restart-from-neighbor state resync — a revived node
// first adopts a live neighbour's current estimate (2 transmissions)
// before rejoining, trading exact initial-sum preservation for
// convergence near the survivors' consensus. Push-sum ignores it: its
// mass-conservation bookkeeping already survives churn. Off by default;
// fault runs without it reproduce historical results bit-for-bit.
func WithRecovery() RunOption {
	return func(c *runConfig) { c.run.Recover = true }
}

// WithChurn overlays crash-stop node failure on the run: each node
// stays up for an exponential duration with mean meanUp, crashes, and
// (when meanDown > 0) revives after an exponential downtime with mean
// meanDown, resuming from its pre-crash state. meanDown = 0 means
// crashed nodes never return. Durations are engine time units (see
// WithFaults). Equivalent to the "churn:UP/DOWN" fault component:
// composes with WithLossRate and loss-only WithFaults specs, and
// combining it with a WithFaults spec that already has churn is an
// error. Run rejects meanUp ≤ 0 and meanDown < 0.
func WithChurn(meanUp, meanDown float64) RunOption {
	return lower(shorthandChurn, "churn:"+specNumber(meanUp)+"/"+specNumber(meanDown))
}

// WithTraceWriter streams structured protocol events to w as they
// happen: long-range exchanges, round activations and packet losses for
// the affine algorithms; packet losses for the baselines.
func WithTraceWriter(w io.Writer) RunOption {
	return func(c *runConfig) { c.run.Tracer = &trace.Writer{W: w} }
}

// WithTraceJSONL streams the run's protocol events to w as JSON Lines —
// one object per event, e.g.
//
//	{"seq":17,"kind":"far","square":3,"a":12,"b":907,"hops":24}
//
// replayable by cmd/traceview and trace-analysis tooling. sampleEvery
// selects deterministic per-kind 1-in-k sampling (0 or 1 keeps every
// event; sequence numbers still count the full stream, so a reader can
// tell sampling happened). kinds, when non-empty, restricts output to
// the named event kinds ("near", "far", "loss", "leaf-done", "activate",
// "deactivate", "reelect", "resync", "churn", "retransmit", "timeout");
// an unknown name fails the run. Later trace options override earlier
// ones.
func WithTraceJSONL(w io.Writer, sampleEvery int, kinds ...string) RunOption {
	return func(c *runConfig) {
		j := &trace.JSONL{W: w, SampleEvery: sampleEvery}
		for _, name := range kinds {
			k, err := trace.KindFromString(name)
			if err != nil {
				c.optErr = fmt.Errorf("geogossip: WithTraceJSONL: %w", err)
				return
			}
			j.Filter = append(j.Filter, k)
		}
		c.run.Tracer = j
	}
}

func newRunConfig(opts []RunOption) runConfig {
	cfg := runConfig{
		run:  engine.Config{Stop: sim.StopRule{TargetErr: 1e-3, MaxTicks: 200_000_000}},
		seed: 1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// validate checks every RunOption input at Run time — returning a
// descriptive error instead of silently accepting garbage — and yields
// the assembled fault spec for the engine.
func (c runConfig) validate() (channel.Spec, error) {
	if c.optErr != nil {
		return channel.Spec{}, c.optErr
	}
	if !positiveFinite(c.run.Stop.TargetErr) {
		return channel.Spec{}, fmt.Errorf("geogossip: WithTargetError(%v): target error must be positive and finite", c.run.Stop.TargetErr)
	}
	if c.betaSet && !positiveFinite(c.run.Beta) {
		return channel.Spec{}, fmt.Errorf("geogossip: WithBeta(%v): beta must be positive and finite", c.run.Beta)
	}
	if c.throttleSet && !positiveFinite(c.run.Throttle) {
		return channel.Spec{}, fmt.Errorf("geogossip: WithThrottle(%v): throttle must be positive and finite", c.run.Throttle)
	}
	return c.engineFaults()
}

// positiveFinite reports whether v is positive and finite. NaN fails
// every comparison and +Inf passes "v > 0", so "v <= 0" alone lets both
// through.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// engineFaults assembles the channel spec the engines run on: the
// WithFaults spec with each medium shorthand's component composed onto
// it.
func (c runConfig) engineFaults() (channel.Spec, error) {
	spec, err := channel.Parse(c.faults)
	if err != nil {
		return spec, fmt.Errorf("geogossip: WithFaults: %w", err)
	}
	for option, text := range c.shorthand {
		part, err := channel.Parse(text)
		if err == nil {
			spec, err = spec.Compose(part)
		}
		if err != nil {
			return spec, fmt.Errorf("geogossip: %s: %w", shorthandNames[option], err)
		}
	}
	return spec, nil
}

// algo is every Algorithm: an engine table name and the run options.
type algo struct {
	name string
	cfg  runConfig
}

// NewAlgorithm returns the algorithm with the given engine name —
// "boyd", "geographic", "push-sum", "affine-hierarchical" or
// "affine-async", the names Result.Algorithm and SweepSpec.Algorithms
// use.
func NewAlgorithm(name string, opts ...RunOption) (Algorithm, error) {
	if _, ok := engine.Lookup(name); !ok {
		return nil, fmt.Errorf("geogossip: unknown algorithm %q (valid: %s)", name, strings.Join(engine.Names(), ", "))
	}
	return algo{name, newRunConfig(opts)}, nil
}

// Boyd returns randomized nearest-neighbour gossip (Boyd et al.).
func Boyd(opts ...RunOption) Algorithm { return algo{engine.Boyd, newRunConfig(opts)} }

// Geographic returns geographic gossip (Dimakis et al.) with rejection
// sampling (or uniform sampling via WithUniformSampling).
func Geographic(opts ...RunOption) Algorithm { return algo{engine.Geographic, newRunConfig(opts)} }

// AffineHierarchical returns the paper's algorithm in its round-structured
// form (§3): recursive square averaging with non-convex affine long-range
// exchanges.
func AffineHierarchical(opts ...RunOption) Algorithm { return algo{engine.Affine, newRunConfig(opts)} }

// AffineAsync returns the paper's algorithm as the faithful event-driven
// §4 protocol (per-node Poisson clocks, on/off control, counters).
func AffineAsync(opts ...RunOption) Algorithm { return algo{engine.Async, newRunConfig(opts)} }

// PushSum returns asynchronous push-sum averaging (Kempe–Dobra–Gehrke,
// FOCS 2003): one one-way message per exchange. Under faults, lost
// pushes roll back at the sender (mass-conservation bookkeeping), so
// the Σs and Σw invariants — and with them the consensus target — hold
// under arbitrary loss and churn; see the examples/churn scenario.
func PushSum(opts ...RunOption) Algorithm { return algo{engine.PushSum, newRunConfig(opts)} }

func (a algo) Name() string { return a.name }

func (a algo) Run(nw *Network, values []float64) (*Result, error) {
	faults, err := a.cfg.validate()
	if err != nil {
		return nil, err
	}
	e, _ := engine.Lookup(a.name)
	reg := obs.NewRegistry()
	cfg := a.cfg.run
	cfg.Faults = faults
	cfg.Obs = reg.Scope(a.name)
	res, err := e.Run(nw.g, nw.h, values, cfg, rng.New(a.cfg.seed))
	if err != nil {
		return nil, err
	}
	return fromMetrics(res, reg), nil
}

// Mean returns the arithmetic mean of values (the consensus target), or 0
// for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
