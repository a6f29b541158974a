package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"geogossip/internal/netstore"
	"geogossip/internal/obs"
	"geogossip/internal/routing"
)

// Options configures one engine run.
type Options struct {
	// Workers sizes the pool; zero selects GOMAXPROCS.
	Workers int
	// BuildWorkers sizes the intra-network construction parallelism: each
	// cached network build (graph radius scan, hierarchy tables) shards
	// across this many goroutines; zero selects GOMAXPROCS, one builds
	// serially. Any value yields byte-identical networks (the construction
	// suites assert it), so it is not part of the task identity. Useful
	// when a grid has few distinct networks but each is large.
	BuildWorkers int
	// Sink receives each TaskResult as it completes (completion order).
	// Nil discards streamed results; Run still returns the collected
	// slice. Sink.Write is called from a single goroutine.
	Sink Sink
	// Resume carries results from a previous run of the same spec
	// (typically parsed by ReadResults from an interrupted run's JSONL
	// output). Their tasks are not re-executed; the prior results are
	// merged into the returned slice — but not re-sent to the Sink,
	// which only sees newly executed tasks. Every resumed result is
	// validated against the current grid: an ID whose coordinates do not
	// match the expansion means the output came from a different spec,
	// and Run fails rather than silently mixing two grids.
	Resume []TaskResult
	// Progress, when non-nil, is called after every completed task with
	// the number done and the total scheduled. Called from the same
	// single goroutine as Sink.Write.
	Progress func(done, total int)
	// RouteStats, when non-nil, receives the aggregated route/flood
	// cache counters of the run's shared per-network caches after every
	// task has drained.
	RouteStats *routing.CacheStats
	// NetStats, when non-nil, receives the run's network-construction
	// summary (distinct builds, construction wall-clock, footprint) after
	// every task has drained.
	NetStats *NetBuildStats
	// NetStore, when non-nil, is the content-addressed network snapshot
	// store: cached builds load instead of constructing, and fresh builds
	// persist for later runs (see internal/netstore). Loaded networks are
	// bit-identical to built ones, so results are unaffected.
	NetStore *netstore.Store
	// Obs, when non-nil, receives the sweep's metrics: every engine run
	// reports into a per-algorithm scope on this registry, and the run
	// registers scrape-time collectors for task progress, route-cache
	// counters, and channel-pool reuse. All instruments are atomic, so
	// the registry may be scraped (e.g. served over HTTP) while the sweep
	// is running. Nil runs every engine with a nil scope — the
	// zero-overhead default. Execution results are unaffected either way.
	Obs *obs.Registry
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run expands the spec and executes every task opt.Resume does not
// cover on the worker pool. The returned slice is sorted by TaskID and
// — given the same spec — bit-identical for any worker count. On
// context cancellation Run stops scheduling, waits for in-flight tasks
// to drain, and returns the partial results alongside ctx.Err().
func Run(ctx context.Context, spec Spec, opt Options) ([]TaskResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	all := spec.Expand()
	resumed, err := ValidateResume(all, opt.Resume)
	if err != nil {
		return nil, err
	}
	tasks := all[:0:0]
	for _, t := range all {
		if !resumed[t.ID] {
			tasks = append(tasks, t)
		}
	}
	results, err := runPool(ctx, tasks, opt)
	results = append(results, opt.Resume...)
	sort.Slice(results, func(i, j int) bool { return results[i].TaskID < results[j].TaskID })
	return results, err
}

// ValidateResume checks previously completed results against the
// current grid expansion and returns the set of task IDs they cover. An
// ID outside the grid, coordinates that disagree with the expansion, or
// a duplicated ID mean the results came from a different spec, and the
// caller must fail rather than silently mix two grids. Both the local
// engine (Run) and the distributed coordinator re-validate resumed
// sinks through this.
func ValidateResume(all []Task, resume []TaskResult) (map[int]bool, error) {
	resumed := make(map[int]bool, len(resume))
	for _, r := range resume {
		if r.TaskID < 0 || r.TaskID >= len(all) {
			return nil, fmt.Errorf("sweep: resumed task %d outside the current grid (%d tasks) — output from a different spec?", r.TaskID, len(all))
		}
		if t := all[r.TaskID]; !r.matches(t) {
			return nil, fmt.Errorf("sweep: resumed task %d was %s n=%d seed=%d loss=%v beta=%v target=%v radius=%v field=%s run-seed=%d, but the current grid expands it to %s n=%d seed=%d loss=%v beta=%v target=%v radius=%v field=%s run-seed=%d — output from a different spec",
				r.TaskID, r.Algorithm, r.N, r.SeedIndex, r.LossRate, r.Beta,
				r.TargetErr, r.RadiusMultiplier, r.Field, r.RunSeed,
				t.Algorithm, t.N, t.SeedIndex, t.LossRate, t.Beta,
				t.TargetErr, t.RadiusMultiplier, t.Field, t.runSeed())
		}
		if resumed[r.TaskID] {
			return nil, fmt.Errorf("sweep: resumed results carry task %d twice", r.TaskID)
		}
		resumed[r.TaskID] = true
	}
	return resumed, nil
}

// matches reports whether a resumed result agrees with the task the
// current grid assigns to its ID: the grid coordinates, the recorded
// run-level parameters, and the run seed — which re-derives from the
// current BaseSeed and coordinates, so a changed base seed is caught
// even though it appears in no other field.
func (r TaskResult) matches(t Task) bool {
	return r.Algorithm == t.Algorithm && r.N == t.N && r.SeedIndex == t.SeedIndex &&
		r.LossRate == t.LossRate && r.FaultModel == t.FaultModel && r.Transport == t.Transport &&
		r.Recover == t.Recover &&
		r.Beta == t.Beta && r.Sampling == t.Sampling && r.Hierarchy == t.Hierarchy &&
		r.TargetErr == t.TargetErr && r.MaxTicks == t.MaxTicks &&
		r.RadiusMultiplier == t.RadiusMultiplier && r.Field == t.Field &&
		r.AsyncThrottle == t.AsyncThrottle && r.AsyncLeafTicks == t.AsyncLeafTicks &&
		r.RunSeed == t.runSeed()
}

func runPool(ctx context.Context, tasks []Task, opt Options) ([]TaskResult, error) {
	workers := opt.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if len(tasks) == 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	cache := newNetCache()
	cache.buildWorkers = opt.BuildWorkers
	cache.store = opt.NetStore
	taskCh := make(chan Task)
	resCh := make(chan TaskResult)

	// Each worker owns one set of reusable engine run states, so a grid of
	// R runs performs O(workers) state allocations instead of O(R) — the
	// same sharing discipline as the per-network route caches. Pooled
	// execution is bit-identical to fresh. The states are built up front so
	// the scrape collector below can read their channel-pool counters.
	states := make([]*runStates, workers)
	for w := range states {
		states[w] = &runStates{reg: opt.Obs}
	}
	var doneGauge *obs.Gauge
	if reg := opt.Obs; reg != nil {
		reg.Gauge(obs.MetricSweepTasksTotal,
			"Tasks scheduled in the current sweep run.").Set(float64(len(tasks)))
		doneGauge = reg.Gauge(obs.MetricSweepTasksDone,
			"Tasks completed in the current sweep run.")
		doneGauge.Set(0)
		reg.OnScrape(func() {
			s := cache.routeStats()
			help := "Route/flood cache lookups of the current sweep run, by kind and result (scrape-time snapshot)."
			reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "route", "result", "hit").Set(float64(s.RouteHits))
			reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "route", "result", "miss").Set(float64(s.RouteMisses))
			reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "flood", "result", "hit").Set(float64(s.FloodHits))
			reg.Gauge(obs.MetricRouteCacheLookups, help, "kind", "flood", "result", "miss").Set(float64(s.FloodMisses))
			var builds uint64
			for _, st := range states {
				builds += st.channelBuilds()
			}
			reg.Gauge(obs.MetricChannelPoolBuilds,
				"Radio channels served from pooled worker state instead of fresh allocations (scrape-time snapshot).").Set(float64(builds))
			if store := opt.NetStore; store != nil {
				st := store.Stats()
				reg.Gauge(obs.MetricNetstoreHits,
					"Networks loaded from the snapshot store instead of being rebuilt (scrape-time snapshot).").Set(float64(st.Hits))
				reg.Gauge(obs.MetricNetstoreMisses,
					"Network store misses that fell back to a fresh build (scrape-time snapshot).").Set(float64(st.Misses))
				reg.Gauge(obs.MetricNetstoreStoredBytes,
					"Snapshot bytes persisted to the network store by this process (scrape-time snapshot).").Set(float64(st.StoredBytes))
				reg.Gauge(obs.MetricNetstoreLoadSeconds,
					"Cumulative wall-clock spent loading network snapshots (scrape-time snapshot).").Set(st.LoadTime.Seconds())
			}
		})
	}

	go func() {
		defer close(taskCh)
		for _, t := range tasks {
			select {
			case taskCh <- t:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		mine := states[w]
		go func() {
			defer wg.Done()
			for t := range taskCh {
				if ctx.Err() != nil {
					return
				}
				r := executeWith(t, cache, mine)
				select {
				case resCh <- r:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	var out []TaskResult
	var sinkErr error
	done := 0
	for r := range resCh {
		out = append(out, r)
		if opt.Sink != nil && sinkErr == nil {
			if err := opt.Sink.Write(r); err != nil {
				sinkErr = fmt.Errorf("sweep: sink: %w", err)
				cancel()
			}
		}
		done++
		if doneGauge != nil {
			doneGauge.Set(float64(done))
		}
		if opt.Progress != nil {
			opt.Progress(done, len(tasks))
		}
	}
	if opt.RouteStats != nil {
		*opt.RouteStats = cache.routeStats()
	}
	if opt.NetStats != nil {
		*opt.NetStats = cache.netStats()
	}
	if sinkErr != nil {
		return out, sinkErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// Map runs fn(i) for every i in [0, n) on a pool of workers (zero selects
// GOMAXPROCS) and returns the results indexed by i. It is the generic
// face of the engine used by the experiment harness: per-index work must
// seed its own randomness from i, and because results land at their index
// — never in completion order — any reduction over the returned slice is
// bit-identical for every worker count.
//
// Map fails fast: the first observed error stops scheduling (in-flight
// indices drain), and the lowest-index recorded error is returned —
// deterministic at one worker, best-effort under parallelism. External
// cancellation likewise stops scheduling and returns ctx.Err().
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	mapCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := 0; i < n; i++ {
			select {
			case idxCh <- i:
			case <-mapCtx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if mapCtx.Err() != nil {
					return
				}
				out[i], errs[i] = fn(i)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return out, err
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
