// Package engine is the one table of the averaging engines. The facade,
// the sweep, cmd/geogossip and the experiments look engines up here by
// name. Each entry alone decides which Config fields its engine reads,
// and returns its engine's *metrics.Result unchanged (DESIGN.md §7,
// "Engine table").
package engine

import (
	"fmt"

	"geogossip/internal/channel"
	"geogossip/internal/core"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// Engine names, as the facade, the sweep grid and its sink spell them.
const (
	Boyd       = "boyd"
	Geographic = "geographic"
	PushSum    = "push-sum"
	Affine     = "affine-hierarchical"
	Async      = "affine-async"
)

// Config is every option an engine can read. Zero values select each
// engine's defaults.
type Config struct {
	// Stop is the target error and tick cap; affine-hierarchical has no
	// clock and reads only the target.
	Stop   sim.StopRule
	Faults channel.Spec
	// Recover switches on re-election (affine engines) or
	// restart-from-neighbor resync (boyd, geographic).
	Recover bool
	// Beta, Throttle and LeafTicks are the affine engines' knobs (the
	// last two affine-async's only); Sampling is geographic's.
	Beta      float64
	Throttle  float64
	LeafTicks int
	Sampling  gossip.Sampling
	Tracer    trace.Tracer
	Obs       *obs.Scope
	// Routes is the network's shared route/flood cache.
	Routes *routing.Cache
	// Gossip and Core are pooled run states; nil runs on fresh state.
	Gossip *gossip.RunState
	Core   *core.RunState
}

// Engine is one entry of the table. Hierarchical engines run over the
// network's square hierarchy; the others ignore it.
type Engine struct {
	Name         string
	Hierarchical bool
	run          func(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error)
}

var table = []Engine{
	{Name: Boyd, run: runBoyd},
	{Name: Geographic, run: runGeographic},
	{Name: PushSum, run: runPushSum},
	{Name: Affine, Hierarchical: true, run: runAffine},
	{Name: Async, Hierarchical: true, run: runAsync},
}

// Run runs the engine over g (and h, for hierarchical engines) from
// the values x. A run that ends at a NaN or infinite relative error
// fails with an error naming the engine and the value: it neither
// converged nor left a result anyone can aggregate or encode.
func (e Engine) Run(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	res, err := e.run(g, h, x, c, r)
	if err != nil {
		return nil, err
	}
	if !sim.Finite(res.FinalErr) {
		return nil, fmt.Errorf("engine: %s run ended at non-finite relative error %v", e.Name, res.FinalErr)
	}
	return res, nil
}

// Lookup returns the engine with the given name.
func Lookup(name string) (Engine, bool) {
	for _, e := range table {
		if e.Name == name {
			return e, true
		}
	}
	return Engine{}, false
}

// Names lists the engine names in table order.
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	return names
}

// baseline is the options of the three gossip baselines. It leaves out
// Routes: geographic's random endpoint pairs almost never recur, so the
// shared cache would only grow, and boyd and push-sum do not route.
func baseline(c Config) gossip.Options {
	return gossip.Options{
		Stop:   c.Stop,
		Faults: c.Faults,
		Resync: c.Recover,
		State:  c.Gossip,
		Tracer: c.Tracer,
		Obs:    c.Obs,
	}
}

func runBoyd(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	return gossip.RunBoyd(g, x, baseline(c), r)
}

func runGeographic(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	return gossip.RunGeographic(g, x, gossip.GeoOptions{
		Options:  baseline(c),
		Sampling: c.Sampling,
	}, r)
}

// runPushSum passes Recover through as Resync, which push-sum ignores:
// its mass bookkeeping already survives churn.
func runPushSum(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	return gossip.RunPushSum(g, x, baseline(c), r)
}

func runAffine(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	res, err := core.RunRecursive(g, h, x, core.RecursiveOptions{
		Eps:     c.Stop.TargetErr,
		Beta:    c.Beta,
		Faults:  c.Faults,
		Recover: c.Recover,
		Routes:  c.Routes,
		State:   c.Core,
		Tracer:  c.Tracer,
		Obs:     c.Obs,
	}, r)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

func runAsync(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	res, err := core.RunAsync(g, h, x, core.AsyncOptions{
		Eps:       c.Stop.TargetErr,
		Beta:      c.Beta,
		Throttle:  c.Throttle,
		LeafTicks: c.LeafTicks,
		// The engine default of 1 stalls at the tick cap (DESIGN.md §7).
		RoundsFactor: 2,
		Stop:         c.Stop,
		Faults:       c.Faults,
		Recover:      c.Recover,
		Routes:       c.Routes,
		State:        c.Core,
		Tracer:       c.Tracer,
		Obs:          c.Obs,
	}, r)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}
