package sweep

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"time"

	"geogossip/internal/channel"
	"geogossip/internal/core"
	"geogossip/internal/engine"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/netstore"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
)

// netAttempts bounds the deterministic seed-retry loop used to find a
// connected instance for a (n, seed index) cell.
const netAttempts = 8

// netKey identifies one cached network build. The hierarchy shape is part
// of the key because hier.Build differs between shapes; tasks that share
// placement but not shape share the graph seed, not the cache entry.
type netKey struct {
	n      int
	seed   uint64
	radius float64
	shape  string
}

type netEntry struct {
	once sync.Once
	g    *graph.Graph
	h    *hier.Hierarchy
	// routes is the entry's shared route/flood cache: every task running
	// on this network build pools its deterministic routing work here
	// (routing is a pure function of the immutable graph, so sharing is
	// invisible to results — see routing.Cache).
	routes *routing.Cache
	err    error
	// buildTime is the wall-clock the entry's construction took — or,
	// when loaded is set, loadTime the wall-clock its snapshot load took;
	// graphBytes/hierBytes its resident footprint at build time (Voronoi
	// areas, computed lazily by geographic tasks, are not included).
	loaded     bool
	buildTime  time.Duration
	loadTime   time.Duration
	graphBytes int64
	hierBytes  int64
}

// netCache deduplicates network construction across the tasks of a grid:
// every (algorithm × loss × beta × ...) combination at the same
// (n, seed index) runs on one shared immutable Network build. Entries are
// built exactly once under a per-entry sync.Once so concurrent workers
// never duplicate or block each other on unrelated keys.
type netCache struct {
	mu      sync.Mutex
	entries map[netKey]*netEntry
	// buildWorkers shards each entry's construction (graph scan and
	// hierarchy build); <= 1 is serial. Byte-identical at any value, so
	// it is deliberately not part of netKey.
	buildWorkers int
	// store, when set, satisfies entries from the content-addressed
	// snapshot store before falling back to construction (and persists
	// fresh builds for the next run). Loaded entries are bit-identical to
	// builds, so the store is invisible to results — it is deliberately
	// not part of netKey either.
	store *netstore.Store
}

func newNetCache() *netCache {
	return &netCache{entries: make(map[netKey]*netEntry)}
}

var errNotConnected = fmt.Errorf("sweep: generated network is not connected")

func (c *netCache) get(key netKey) (*graph.Graph, *hier.Hierarchy, *routing.Cache, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &netEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		build := func() (*graph.Graph, *hier.Hierarchy, error) {
			g, err := graph.GenerateWorkers(key.n, key.radius, rng.New(key.seed), c.buildWorkers)
			if err != nil {
				return nil, nil, err
			}
			if key.n > 1 && !g.IsConnected() {
				return nil, nil, errNotConnected
			}
			hcfg := hier.Config{Workers: c.buildWorkers}
			if key.shape == HierarchyFlat {
				hcfg.MaxDepth = 1
			}
			h, err := hier.Build(g.Points(), hcfg)
			if err != nil {
				return nil, nil, err
			}
			return g, h, nil
		}
		var (
			g      *graph.Graph
			h      *hier.Hierarchy
			loaded bool
			err    error
		)
		if c.store != nil {
			sk := netstore.Key{N: key.n, Seed: key.seed, RadiusMult: key.radius}
			if key.shape == HierarchyFlat {
				sk.MaxDepth = 1
			}
			// Loaded entries skip the connectivity scan: only connected,
			// fully built networks ever enter the store (a disconnected
			// instance fails build above and nothing is persisted).
			g, h, loaded, err = c.store.GetOrBuild(sk, c.buildWorkers, build)
		} else {
			g, h, err = build()
		}
		if err != nil {
			e.err = err
			return
		}
		// netStats and routeStats read built entries under mu while other
		// entries are still building.
		c.mu.Lock()
		defer c.mu.Unlock()
		e.g, e.h, e.routes = g, h, routing.NewCache()
		e.loaded = loaded
		if loaded {
			e.loadTime = time.Since(start)
		} else {
			e.buildTime = time.Since(start)
		}
		e.graphBytes = int64(g.Footprint().Total())
		e.hierBytes = int64(h.Footprint())
	})
	return e.g, e.h, e.routes, e.err
}

// network finds a connected instance for the task, retrying derived seeds
// deterministically. Every task of a (n, seed index) cell walks the same
// attempt sequence, so all of them land on the same instance — and on the
// same shared route cache.
func (t Task) network(cache *netCache) (*graph.Graph, *hier.Hierarchy, *routing.Cache, uint64, error) {
	var lastErr error
	for attempt := 0; attempt < netAttempts; attempt++ {
		seed := t.netSeed(attempt)
		g, h, routes, err := cache.get(netKey{n: t.N, seed: seed, radius: t.RadiusMultiplier, shape: t.Hierarchy})
		if err == nil {
			return g, h, routes, seed, nil
		}
		lastErr = err
		if err != errNotConnected {
			break
		}
	}
	return nil, nil, nil, 0, fmt.Errorf("sweep: n=%d seed-index=%d: no usable instance in %d attempts: %w",
		t.N, t.SeedIndex, netAttempts, lastErr)
}

// values builds the initial measurement field into buf (reusing its
// storage when large enough). It depends only on the cell's network and
// field seed, so every algorithm of a cell averages the same
// measurements.
func (t Task) values(g *graph.Graph, buf []float64) []float64 {
	x := buf
	if cap(x) >= g.N() {
		x = x[:g.N()]
	} else {
		x = make([]float64, g.N())
	}
	switch t.Field {
	case FieldGaussian:
		r := rng.New(t.fieldSeed())
		for i := range x {
			x[i] = r.NormFloat64()
		}
	default: // FieldSmooth
		for i := int32(0); int(i) < g.N(); i++ {
			p := g.Point(i)
			x[i] = 10*p.X + math.Sin(7*p.Y)
		}
	}
	return x
}

// faults resolves the task's effective radio fault model from its
// LossRate, FaultModel and Transport coordinates (see medium).
func (t Task) faults() (channel.Spec, error) {
	return medium(t.LossRate, t.FaultModel, t.Transport)
}

// runStates bundles the reusable engine run states one worker threads
// through every task it executes (one per worker, mirroring the PR 4
// route-cache sharing): a grid of R runs over one network performs O(1)
// state allocations instead of O(R). Pooling is invisible to results —
// pooled and fresh execution are bit-identical (asserted by the
// pooled-vs-fresh suite).
type runStates struct {
	gossip gossip.RunState
	core   core.RunState
	x      []float64
	runRNG *rng.RNG
	// reg is the sweep's shared metrics registry (nil when observability
	// is off). Scopes are memoized per engine label inside the registry,
	// and every instrument is atomic, so workers share them freely.
	reg *obs.Registry
}

// scope resolves the per-engine metrics scope, nil when no registry is
// attached (the zero-overhead default).
func (st *runStates) scope(engine string) *obs.Scope {
	if st.reg == nil {
		return nil
	}
	return st.reg.Scope(engine)
}

// channelBuilds reports the pooled channel builds this worker's states
// have served (see channel.Pool.Builds).
func (st *runStates) channelBuilds() uint64 {
	return st.gossip.ChannelBuilds() + st.core.ChannelBuilds()
}

// rng returns the task's protocol generator, reusing the worker's pooled
// generator.
func (st *runStates) rng(seed uint64) *rng.RNG {
	if st.runRNG == nil {
		st.runRNG = rng.New(seed)
	} else {
		st.runRNG.Reseed(seed)
	}
	return st.runRNG
}

// Execute runs one task to completion on fresh private state. It never
// panics on a bad grid point: per-task failures are reported in
// TaskResult.Error so one pathological cell cannot sink a thousand-task
// sweep.
func Execute(t Task, cache *netCache) TaskResult {
	return executeWith(t, cache, &runStates{})
}

// executeWith is Execute running on a worker's pooled run states.
func executeWith(t Task, cache *netCache, st *runStates) TaskResult {
	out := TaskResult{
		TaskID:           t.ID,
		Algorithm:        t.Algorithm,
		N:                t.N,
		SeedIndex:        t.SeedIndex,
		LossRate:         t.LossRate,
		FaultModel:       t.FaultModel,
		Transport:        t.Transport,
		Recover:          t.Recover,
		Beta:             t.Beta,
		Sampling:         t.Sampling,
		Hierarchy:        t.Hierarchy,
		TargetErr:        t.TargetErr,
		MaxTicks:         t.MaxTicks,
		RadiusMultiplier: t.RadiusMultiplier,
		Field:            t.Field,
		AsyncThrottle:    t.AsyncThrottle,
		AsyncLeafTicks:   t.AsyncLeafTicks,
		RunSeed:          t.runSeed(),
	}
	g, h, routes, netSeed, err := t.network(cache)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.NetSeed = netSeed
	faults, err := t.faults()
	if err != nil {
		out.Error = err.Error()
		return out
	}
	st.x = t.values(g, st.x)
	x := st.x
	e, ok := engine.Lookup(t.Algorithm)
	if !ok {
		out.Error = fmt.Sprintf("sweep: unknown algorithm %q", t.Algorithm)
		return out
	}
	sampling := gossip.SamplingRejection
	if t.Sampling == SamplingUniform {
		sampling = gossip.SamplingUniformNode
	}
	res, err := e.Run(g, h, x, engine.Config{
		Stop:      sim.StopRule{TargetErr: t.TargetErr, MaxTicks: t.MaxTicks},
		Faults:    faults,
		Recover:   t.Recover,
		Beta:      t.Beta,
		Throttle:  t.AsyncThrottle,
		LeafTicks: t.AsyncLeafTicks,
		Sampling:  sampling,
		Obs:       st.scope(t.Algorithm),
		Routes:    routes,
		Gossip:    &st.gossip,
		Core:      &st.core,
	}, st.rng(out.RunSeed))
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Converged = res.Converged
	out.FinalErr = res.FinalErr
	out.Transmissions = res.Transmissions
	out.SimSeconds = res.SimSeconds
	out.Breakdown = maps.Clone(res.TransmissionsByCategory)
	if e.Hierarchical {
		out.FarExchanges = res.FarExchanges
		out.HierarchyEll = h.Ell
	}
	return out
}

// NetBuildStats summarizes the network constructions one sweep performed:
// how many distinct networks the grid deduplicated to, the wall-clock
// their construction took (summed across entries; entries build
// concurrently, so this can exceed the construct phase's elapsed time),
// and their resident footprint.
type NetBuildStats struct {
	// Networks is the number of distinct (n, seed, radius, shape)
	// networks the grid materialized, built or loaded.
	Networks int
	// Loads is how many of them were satisfied from the network snapshot
	// store instead of being constructed (0 without a store).
	Loads int
	// Nodes sums the node counts of the materialized networks.
	Nodes int64
	// BuildTime is the summed construction wall-clock of the built
	// entries; LoadTime the summed snapshot-load wall-clock of the loaded
	// ones.
	BuildTime time.Duration
	LoadTime  time.Duration
	// GraphBytes and HierBytes are the summed resident footprints of the
	// graphs (points, CSR adjacency, cell index) and hierarchies.
	GraphBytes int64
	HierBytes  int64
	// StoreMisses and StoreBytes mirror the attached store's counters:
	// cache misses that fell back to a build, and snapshot bytes
	// persisted by this process. Both zero without a store.
	StoreMisses uint64
	StoreBytes  int64
}

// BytesPerNode is the summed footprint divided by the summed node count
// (0 when nothing was built) — the scale figure the README's n=1M recipe
// quotes.
func (s NetBuildStats) BytesPerNode() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.GraphBytes+s.HierBytes) / float64(s.Nodes)
}

// netStats aggregates construction cost and footprint across the built
// entries.
func (c *netCache) netStats() NetBuildStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out NetBuildStats
	for _, e := range c.entries {
		if e.g == nil {
			continue
		}
		out.Networks++
		out.Nodes += int64(e.g.N())
		out.BuildTime += e.buildTime
		out.GraphBytes += e.graphBytes
		out.HierBytes += e.hierBytes
		if e.loaded {
			out.Loads++
			out.LoadTime += e.loadTime
		}
	}
	if c.store != nil {
		st := c.store.Stats()
		out.StoreMisses = st.Misses
		out.StoreBytes = st.StoredBytes
	}
	return out
}

// routeStats aggregates the cache counters across every network entry of
// the run — the hit rates cmd/sweep reports in its summary.
func (c *netCache) routeStats() routing.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total routing.CacheStats
	for _, e := range c.entries {
		if e.routes != nil {
			total.Add(e.routes.Stats())
		}
	}
	return total
}
