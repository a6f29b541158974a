package geogossip

import (
	"context"
	"net"
	"time"

	"geogossip/internal/sweep"
	"geogossip/internal/sweep/dist"
)

// WithSweepLeaseSize caps the tasks handed out per lease by SweepServe
// (default: twice the requesting worker's slot count). Smaller leases
// re-balance faster under heterogeneous workers; larger ones amortize
// protocol round trips.
func WithSweepLeaseSize(n int) SweepOption {
	return func(c *sweepConfig) { c.leaseSize = n }
}

// WithSweepLeaseTimeout sets how long SweepServe waits without any
// message from a worker before declaring its leases dead and re-issuing
// their unfinished tasks (default 30s). Per-task seeds make every
// re-execution bit-identical, so a timeout can only cost duplicate work,
// never change results.
func WithSweepLeaseTimeout(d time.Duration) SweepOption {
	return func(c *sweepConfig) { c.leaseTimeout = d }
}

// WithSweepWorkerName labels a SweepJoin worker in the coordinator's
// gauges and /progress output (default "host/pid").
func WithSweepWorkerName(name string) SweepOption {
	return func(c *sweepConfig) { c.workerName = name }
}

// SweepServe coordinates one distributed sweep: it expands the grid
// exactly like Sweep, leases task ranges to SweepJoin workers over ln,
// collects their streamed results, and writes the WithSweepJSONL sink in
// canonical task order — byte-identical to a single-process
// `Sweep(..., WithSweepWorkers(1))` of the same spec, at any worker
// count and even across worker crashes (expired leases re-issue, and the
// deterministic per-task seeds make duplicate executions identical, so
// duplicates are simply discarded). The returned report matches the
// single-process one in Results, Cells, Fits, LossFits and Metrics;
// RouteCache and NetBuild sum per-worker state and therefore depend on
// how the grid was sharded.
//
// Recognized options: WithSweepJSONL, WithSweepResume (a restarted
// coordinator re-validates its sink and leases only incomplete tasks),
// WithSweepProgress, WithSweepMetrics, WithSweepLeaseSize,
// WithSweepLeaseTimeout. Worker-side options are ignored. SweepServe
// returns when the grid is complete, the sink fails, or ctx is
// cancelled (partial report alongside ctx.Err()); the listener is
// closed before it returns.
func SweepServe(ctx context.Context, ln net.Listener, spec SweepSpec, opts ...SweepOption) (*SweepReport, error) {
	var cfg sweepConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.metrics
	if reg == nil {
		reg = NewMetricsRegistry()
	}
	copt := dist.CoordOptions{
		LeaseSize:    cfg.leaseSize,
		LeaseTimeout: cfg.leaseTimeout,
		Progress:     cfg.progress,
		Obs:          reg.reg,
	}
	if cfg.jsonl != nil {
		copt.Sink = sweep.NewJSONL(cfg.jsonl)
	}
	for _, r := range cfg.resume {
		copt.Resume = append(copt.Resume, toInternalResult(r))
	}
	sum, err := dist.Serve(ctx, ln, sweep.Spec(spec), copt)
	if sum == nil {
		return nil, err
	}
	return buildReport(sum.Results, sum.Metrics, sum.Stats), err
}

// SweepJoin connects to a SweepServe coordinator at addr and executes
// leases until the grid completes (returns nil), the connection drops
// (returns the transport error — re-join to continue; the coordinator
// re-issues anything lost), or ctx is cancelled. The worker keeps one
// pooled executor for the whole session, sharing built networks and
// warmed route caches across its leases.
//
// Recognized options: WithSweepWorkers (the worker's slot count),
// WithSweepBuildWorkers, WithSweepWorkerName, WithSweepNetworkDir (the
// worker consults the snapshot store before building and reports builds
// avoided in its heartbeats), and WithSweepProgress — called with this
// worker's running task count and total 0 (a worker cannot see
// grid-wide progress; watch the coordinator's /progress for that).
// Coordinator-side options are ignored.
func SweepJoin(ctx context.Context, addr string, opts ...SweepOption) error {
	var cfg sweepConfig
	for _, o := range opts {
		o(&cfg)
	}
	var progress func(int)
	if cfg.progress != nil {
		progress = func(done int) { cfg.progress(done, 0) }
	}
	return dist.Join(ctx, addr, dist.WorkerOptions{
		Name:         cfg.workerName,
		Slots:        cfg.workers,
		BuildWorkers: cfg.buildWorkers,
		NetDir:       cfg.netDir,
		Progress:     progress,
	})
}
