// Package engine is the one table of the averaging engines. The facade,
// the sweep and cmd/geogossip look engines up here by name, and each
// entry alone decides which Config fields its engine reads (DESIGN.md
// §7, "Engine table").
package engine

import (
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

// Result is a run's summary plus the far exchanges the hierarchical
// engines count.
type Result struct {
	*metrics.Result
	FarExchanges uint64
}

// Engine is one entry of the table. Hierarchical engines run over the
// network's square hierarchy; the others ignore it.
type Engine struct {
	Name         string
	Hierarchical bool
	Run          func(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (Result, error)
}

var table = []Engine{
	{Name: Boyd, Run: runBoyd},
	{Name: Geographic, Run: runGeographic},
	{Name: PushSum, Run: runPushSum},
	{Name: Affine, Hierarchical: true, Run: runAffine},
	{Name: Async, Hierarchical: true, Run: runAsync},
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

func runBoyd(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (Result, error) {
	res, err := gossip.RunBoyd(g, x, baseline(c), r)
	return Result{Result: res}, err
}

func runGeographic(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (Result, error) {
	res, err := gossip.RunGeographic(g, x, gossip.GeoOptions{
		Options:  baseline(c),
		Sampling: c.Sampling,
	}, r)
	return Result{Result: res}, err
}

// runPushSum passes Recover through as Resync, which push-sum ignores:
// its mass bookkeeping already survives churn.
func runPushSum(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (Result, error) {
	res, err := gossip.RunPushSum(g, x, baseline(c), r)
	return Result{Result: res}, err
}

func runAffine(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (Result, error) {
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
		return Result{}, err
	}
	return Result{Result: res.Result, FarExchanges: res.FarExchanges}, nil
}

func runAsync(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (Result, error) {
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
		return Result{}, err
	}
	return Result{Result: res.Result, FarExchanges: res.FarExchanges}, nil
}
