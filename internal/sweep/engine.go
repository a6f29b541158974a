package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"geogossip/internal/netstore"
	"geogossip/internal/obs"
)

// Options configures one engine run.
type Options struct {
	// Workers sizes the executor (its slot count); zero selects
	// GOMAXPROCS.
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
	// slice. Sink.Write calls are serialized.
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
	// the number done and the total scheduled. Its calls are serialized
	// with each other and with Sink.Write.
	Progress func(done, total int)
	// Stats, when non-nil, receives the run's statistics (route/flood
	// cache counters, network construction summary, pooled channel
	// builds) after every task has drained.
	Stats *RunStats
	// NetStore, when non-nil, is the content-addressed network snapshot
	// store: cached builds load instead of constructing, and fresh builds
	// persist for later runs (see internal/netstore). Loaded networks are
	// bit-identical to built ones, so results are unaffected.
	NetStore *netstore.Store
	// Obs, when non-nil, receives the sweep's metrics: every engine run
	// reports into a per-algorithm scope on this registry, and the run
	// keeps scrape-time gauges of task progress and its RunStats (see
	// RunStats.SetGauges) current through a collector it removes on
	// return, leaving the gauges at their final values. All instruments
	// are atomic, so the registry may be scraped (e.g. served over HTTP)
	// while the sweep is running. Nil runs every engine with a nil scope
	// — the zero-overhead default. Execution results are unaffected
	// either way.
	Obs *obs.Registry
}

// Run expands the spec and executes every task opt.Resume does not
// cover on an Executor of opt.Workers slots. The returned slice is
// sorted by TaskID and — given the same spec — bit-identical for any
// worker count. On context cancellation Run stops scheduling, waits for
// in-flight tasks to drain, and returns the partial results alongside
// ctx.Err().
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

	ex := newExecutor(opt.Workers, opt.BuildWorkers, opt.NetStore, opt.Obs, false)
	var doneGauge *obs.Gauge
	if reg := opt.Obs; reg != nil {
		reg.Gauge(obs.MetricSweepTasksTotal,
			"Tasks scheduled in the current sweep run.").Set(float64(len(tasks)))
		doneGauge = reg.Gauge(obs.MetricSweepTasksDone,
			"Tasks completed in the current sweep run.")
		doneGauge.Set(0)
		refresh := func() { ex.Stats().SetGauges(reg) }
		remove := reg.OnScrape(refresh)
		// The collector holds the executor and its networks: drop it
		// when the run ends, leaving the gauges at the run's final values.
		defer func() {
			remove()
			refresh()
		}()
	}
	results := append(make([]TaskResult, 0, len(all)), opt.Resume...)
	done := 0
	err = ex.Each(ctx, tasks, func(r TaskResult, _ map[string]float64) error {
		results = append(results, r)
		if opt.Sink != nil {
			if err := opt.Sink.Write(r); err != nil {
				return fmt.Errorf("sweep: sink: %w", err)
			}
		}
		done++
		if doneGauge != nil {
			doneGauge.Set(float64(done))
		}
		if opt.Progress != nil {
			opt.Progress(done, len(tasks))
		}
		return nil
	})
	if opt.Stats != nil {
		*opt.Stats = ex.Stats()
	}
	sort.Slice(results, func(i, j int) bool { return results[i].TaskID < results[j].TaskID })
	return results, err
}

// ValidateResume checks previously completed results against the
// current grid expansion and returns the set of task IDs they cover. An
// ID outside the grid, parameters that disagree with the expansion, or
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
			return nil, fmt.Errorf("sweep: resumed task %d was %+v run-seed=%d, but the current grid expands it to %+v run-seed=%d — output from a different spec",
				r.TaskID, r.Params, r.RunSeed, t.Params, t.runSeed())
		}
		if resumed[r.TaskID] {
			return nil, fmt.Errorf("sweep: resumed results carry task %d twice", r.TaskID)
		}
		resumed[r.TaskID] = true
	}
	return resumed, nil
}

// matches reports whether a resumed result agrees with the task the
// current grid assigns to its ID: the Params, and the run seed — which
// re-derives from the current BaseSeed and coordinates, so a changed
// base seed is caught even though it appears in no other field.
func (r TaskResult) matches(t Task) bool {
	return r.Params == t.Params && r.RunSeed == t.runSeed()
}

// Map runs fn(i) for every i in [0, n) on a pool of workers (zero selects
// GOMAXPROCS) and returns the results indexed by i. It is the generic
// face of the engine used by the experiment harness: per-index work must
// seed its own randomness from i, and because results land at their index
// — never in completion order — any reduction over the returned slice is
// bit-identical for every worker count.
//
// Map fails fast: the first error stops scheduling (in-flight indices
// drain) and is returned — the lowest-index one at one worker,
// best-effort under parallelism. External cancellation likewise stops
// scheduling and returns ctx.Err().
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	err := each(ctx, n, workers, func(_, i int) (T, error) { return fn(i) },
		func(i int, v T) error { out[i] = v; return nil })
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	}
	return out, err
}
