// Package engine is the one table of the averaging engines. The facade,
// the sweep, cmd/geogossip and the experiments look engines up here by
// name. Every entry hands the one options record to its engine, which
// reads the fields that name it, and returns its engine's
// *metrics.Result unchanged (DESIGN.md §7, "Engine table").
package engine

import (
	"fmt"

	"geogossip/internal/core"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// Engine names, as the facade, the sweep grid and its sink spell them.
const (
	Boyd       = "boyd"
	Geographic = "geographic"
	PushSum    = "push-sum"
	Affine     = "affine-hierarchical"
	Async      = "affine-async"
)

// Config is every option an engine can read: the engines' one options
// record (sim.Options), over the pair of pooled run states. Zero values
// select each engine's defaults, except where Run fills one in.
type Config = sim.Options[State]

// State is the engine table's pooled run state: one reusable state per
// engine family, so one sweep slot runs all five engines on its own
// states. A nil Config.State runs each engine on a fresh private state.
type State struct {
	Gossip gossip.RunState
	Core   core.RunState
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
//
// Run fills in the table's two defaults, each only where c leaves a
// zero: the affine engines' Eps is the stop rule's target, and
// affine-async runs at RoundsFactor 2, because the engine's own default
// of 1 stalls at the tick cap (DESIGN.md §7).
func (e Engine) Run(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	if c.Eps == 0 {
		c.Eps = c.Stop.TargetErr
	}
	if c.RoundsFactor == 0 {
		c.RoundsFactor = 2
	}
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

// baseline and affine hand c to one engine family, over that family's
// state from c's pair.
func baseline(c Config) gossip.Options {
	var st *gossip.RunState
	if c.State != nil {
		st = &c.State.Gossip
	}
	return sim.WithState(c, st)
}

func affine(c Config) sim.Options[core.RunState] {
	var st *core.RunState
	if c.State != nil {
		st = &c.State.Core
	}
	return sim.WithState(c, st)
}

func runBoyd(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	return gossip.RunBoyd(g, x, baseline(c), r)
}

func runGeographic(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	return gossip.RunGeographic(g, x, gossip.GeoOptions{Options: baseline(c)}, r)
}

func runPushSum(g *graph.Graph, _ *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	return gossip.RunPushSum(g, x, baseline(c), r)
}

func runAffine(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	res, err := core.RunRecursive(g, h, x, affine(c), r)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}

func runAsync(g *graph.Graph, h *hier.Hierarchy, x []float64, c Config, r *rng.RNG) (*metrics.Result, error) {
	res, err := core.RunAsync(g, h, x, affine(c), r)
	if err != nil {
		return nil, err
	}
	return res.Result, nil
}
