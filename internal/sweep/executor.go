package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"geogossip/internal/netstore"
	"geogossip/internal/obs"
	"geogossip/internal/routing"
)

// Executor is the only code that runs a sweep task. It holds one
// network/route cache shared by all its slots and one reusable engine
// run state per slot. Run builds one per call; the distributed worker
// (internal/sweep/dist) keeps one for its whole session, so consecutive
// leases over the same (n, seed) cells reuse the already-built networks
// and warmed route caches; the benchmark times tasks through one.
//
// The slots of a NewExecutor each carry a private metrics registry, so
// Execute can report the exact per-task delta of every Flatten counter:
// the distributed coordinator sums accepted deltas and reproduces the
// single-process SweepReport.Metrics bit-identically, even when a task
// ran twice after a lease re-issue (duplicates are discarded with their
// deltas). Run's executor instead reports into Options.Obs, where the
// counters are live, and takes no deltas.
type Executor struct {
	cache *netCache
	slots []*execSlot
	// deltas is set when each slot reports into a private registry.
	deltas bool
}

type execSlot struct {
	states *runStates
	// prev is the slot registry's Flatten view after its last task.
	prev map[string]float64
}

// NewExecutor returns an executor with the given number of slots
// (zero selects GOMAXPROCS), per-network construction parallelism
// (see Options.BuildWorkers), and an optional network snapshot store
// (see Options.NetStore; nil builds every network).
func NewExecutor(slots, buildWorkers int, store *netstore.Store) *Executor {
	return newExecutor(slots, buildWorkers, store, nil, true)
}

// newExecutor returns an executor whose slots all report into reg (nil
// runs the engines unobserved) or, with deltas set, each into a private
// registry.
func newExecutor(slots, buildWorkers int, store *netstore.Store, reg *obs.Registry, deltas bool) *Executor {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	e := &Executor{cache: newNetCache(), deltas: deltas}
	e.cache.buildWorkers = buildWorkers
	e.cache.store = store
	for range slots {
		if deltas {
			reg = obs.NewRegistry()
		}
		e.slots = append(e.slots, &execSlot{states: &runStates{reg: reg}})
	}
	return e
}

// Slots returns the executor's slot count — the number of tasks it can
// run concurrently.
func (e *Executor) Slots() int { return len(e.slots) }

// Execute runs one task on the given slot's pooled state and returns
// its result together with the task's metrics delta: every Flatten key
// the slot's registry carries, valued by how much this task moved it
// (zero-valued keys are included, so summed deltas reproduce a
// registry's full key set). The delta is nil on Run's executor, whose
// slots share one registry. Distinct slots may execute concurrently; a
// single slot must not.
func (e *Executor) Execute(slot int, t Task) (TaskResult, map[string]float64) {
	s := e.slots[slot]
	if !e.deltas {
		return executeWith(t, e.cache, s.states), nil
	}
	if s.prev == nil {
		s.prev = s.states.reg.Flatten()
	}
	r := executeWith(t, e.cache, s.states)
	cur := s.states.reg.Flatten()
	delta := make(map[string]float64, len(cur))
	for k, v := range cur {
		delta[k] = v - s.prev[k]
	}
	s.prev = cur
	return r, delta
}

// Each executes tasks on the executor's slots and hands every result,
// with its metrics delta (see Execute), to report. Report calls are
// serialized, and it stops the run by returning an error; see each for
// how errors and cancellation end the loop.
func (e *Executor) Each(ctx context.Context, tasks []Task, report func(TaskResult, map[string]float64) error) error {
	type executed struct {
		r     TaskResult
		delta map[string]float64
	}
	return each(ctx, len(tasks), e.Slots(), func(slot, i int) (executed, error) {
		r, delta := e.Execute(slot, tasks[i])
		return executed{r, delta}, nil
	}, func(_ int, x executed) error {
		return report(x.r, x.delta)
	})
}

// each is the package's one goroutine fan-out. It runs task(slot, i) for
// every i in [0, n) on min(slots, n) goroutines, starting indices in
// increasing order; goroutine s always passes slot s, so per-slot state
// is never shared. Each value goes back to the calling goroutine, which
// hands it to report(i, v) there: report calls are serialized and may
// touch the caller's state without locking. The first error of a task
// or a report stops scheduling, and tasks still in flight finish
// unreported; cancelling ctx also stops scheduling, but in-flight tasks
// are still reported. each returns that first error, or else ctx.Err().
func each[T any](ctx context.Context, n, slots int, task func(slot, i int) (T, error), report func(i int, v T) error) error {
	type finished struct {
		i   int
		v   T
		err error
	}
	stop, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	out := make(chan finished)
	var wg sync.WaitGroup
	for slot := range min(slots, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := task(slot, i)
				// The loop below receives until every sender is done.
				out <- finished{i, v, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	var err error
	for f := range out {
		if err != nil {
			continue
		}
		if err = f.err; err == nil {
			err = report(f.i, f.v)
		}
		if err != nil {
			cancel()
		}
	}
	if err != nil {
		return err
	}
	return ctx.Err()
}

// RunStats is what an executor's tasks have cost beyond their results:
// the route/flood cache counters and construction summary of its
// networks, and the radio channels its slots served from pooled state.
// An executor reports its own; distributed workers send theirs in every
// done and heartbeat frame, and the coordinator sums them.
type RunStats struct {
	Route         routing.CacheStats `json:"route"`
	Net           NetBuildStats      `json:"net"`
	ChannelBuilds uint64             `json:"channel_builds,omitempty"`
}

// Stats reports the executor's accumulated run statistics.
func (e *Executor) Stats() RunStats {
	return RunStats{Route: e.RouteStats(), Net: e.NetStats(), ChannelBuilds: e.ChannelBuilds()}
}

// Add accumulates o into s.
func (s *RunStats) Add(o RunStats) {
	s.Route.Add(o.Route)
	s.Net.Networks += o.Net.Networks
	s.Net.Loads += o.Net.Loads
	s.Net.Nodes += o.Net.Nodes
	s.Net.BuildTime += o.Net.BuildTime
	s.Net.LoadTime += o.Net.LoadTime
	s.Net.GraphBytes += o.Net.GraphBytes
	s.Net.HierBytes += o.Net.HierBytes
	s.Net.StoreMisses += o.Net.StoreMisses
	s.Net.StoreBytes += o.Net.StoreBytes
	s.ChannelBuilds += o.ChannelBuilds
}

// SetGauges publishes s on reg as the sweep's scrape-time gauges:
// route/flood cache lookups by kind and result, pooled channel builds,
// and the network store's loads, misses, stored bytes and load seconds.
// Run publishes its executor's statistics and the distributed
// coordinator its workers' sum, under the same names and labels.
func (s RunStats) SetGauges(reg *obs.Registry) {
	help := "Route/flood cache lookups of the current sweep run, by kind and result (scrape-time snapshot)."
	reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "route", "result", "hit").Set(float64(s.Route.RouteHits))
	reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "route", "result", "miss").Set(float64(s.Route.RouteMisses))
	reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "flood", "result", "hit").Set(float64(s.Route.FloodHits))
	reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "flood", "result", "miss").Set(float64(s.Route.FloodMisses))
	reg.Gauge(obs.MetricChannelPoolBuilds,
		"Radio channels served from pooled executor state instead of fresh allocations (scrape-time snapshot).").Set(float64(s.ChannelBuilds))
	reg.Gauge(obs.MetricNetstoreHits,
		"Networks loaded from the snapshot store instead of being rebuilt (scrape-time snapshot).").Set(float64(s.Net.Loads))
	reg.Gauge(obs.MetricNetstoreMisses,
		"Network store misses that fell back to a fresh build (scrape-time snapshot).").Set(float64(s.Net.StoreMisses))
	reg.Gauge(obs.MetricNetstoreStoredBytes,
		"Snapshot bytes persisted to the network store (scrape-time snapshot).").Set(float64(s.Net.StoreBytes))
	reg.Gauge(obs.MetricNetstoreLoadSeconds,
		"Cumulative wall-clock spent loading network snapshots (scrape-time snapshot).").Set(s.Net.LoadTime.Seconds())
}

// RouteStats reports the executor's accumulated route/flood cache
// counters across every network it has built.
func (e *Executor) RouteStats() routing.CacheStats { return e.cache.routeStats() }

// NetStats reports the executor's network-construction summary.
func (e *Executor) NetStats() NetBuildStats { return e.cache.netStats() }

// ChannelBuilds reports the pooled channel builds served across the
// executor's slots.
func (e *Executor) ChannelBuilds() uint64 {
	var total uint64
	for _, s := range e.slots {
		total += s.states.channelBuilds()
	}
	return total
}
