package geogossip

import (
	"context"
	"io"
	"time"

	"geogossip/internal/netstore"
	"geogossip/internal/sweep"
)

// SweepSpec is a declarative parameter grid for Sweep: every listed axis
// is crossed with every other, and each grid cell runs Seeds independent
// placements. Zero-valued fields default to a single neutral point, so a
// spec only names the axes it sweeps:
//
//	spec := geogossip.SweepSpec{
//	    Algorithms: []string{"boyd", "geographic", "affine-hierarchical"},
//	    Ns:         []int{256, 512, 1024},
//	    Seeds:      2,
//	}
type SweepSpec struct {
	// Algorithms lists protocols: "boyd", "geographic", "push-sum",
	// "affine-hierarchical", "affine-async". Required.
	Algorithms []string
	// Ns lists network sizes. Required.
	Ns []int
	// Seeds is the number of independent placements per cell (default 1).
	Seeds int
	// BaseSeed roots all per-task seed derivation (default 1). Tasks
	// derive their own seeds from it and their coordinates, so results
	// are bit-identical for any worker count.
	BaseSeed uint64
	// LossRates lists packet-loss probabilities (default {0}). A non-zero
	// entry composes onto the task's fault model as "bernoulli:p", the
	// composition WithLossRate makes onto WithFaults.
	LossRates []float64
	// FaultModels lists radio fault models in WithFaults spec form
	// ("perfect", "bernoulli:P", "ge:PGB/PBG/EG/EB", spatial forms
	// "jam:CX/CY/R/LOSS[/FROM/UNTIL[/PERIOD]]", "mjam:CX/CY/R/LOSS/VX/VY",
	// "jampoly:LOSS/X1/Y1/...", "cut:A/B/C/FROM/UNTIL", and churn forms
	// "churn:UP/DOWN", "repchurn:UP/DOWN", "hubchurn:UP/DOWN/K",
	// composable via "+"; default {""}, the perfect medium). Entries
	// carrying their own loss model cannot be crossed with non-zero
	// LossRates; churn-only entries compose with the loss axis.
	// Rep-targeted entries only run on the affine algorithms; other
	// engines report a per-task error.
	FaultModels []string
	// Transports lists transport-reliability fragments in WithFaults spec
	// form, composed onto every fault model of the grid: delay models
	// ("delay:fixed/D", "delay:uniform/LO/HI", "delay:exp/MEAN"), the
	// "reorder:P" / "dup:P" decorators and ARQ
	// ("arq:RETRIES/TIMEOUT/BACKOFF"), composable via "+". Entries must be
	// transport-only (loss, fields, cuts and churn belong on FaultModels),
	// and fault models that already carry transport components cannot be
	// crossed with a non-empty transport axis. Empty selects {""}, no
	// transport layer; transport-free tasks keep the exact run seeds of
	// pre-axis grids, so prior sweep output stays bit-identical and
	// resumable.
	Transports []string
	// Recovery lists engine-recovery settings to cross with the grid
	// (typically {false, true} against a churn fault axis): true runs
	// every task with WithRecovery semantics — representative
	// re-election for the affine algorithms, restart-from-neighbor
	// resync for boyd/geographic; push-sum ignores it. Empty selects
	// {false}; recovery-off tasks keep the exact run seeds of pre-axis
	// grids, so prior sweep output stays bit-identical and resumable.
	Recovery []bool
	// Betas lists affine multipliers (default {0}, the engine's 2/5).
	Betas []float64
	// Samplings lists geographic partner sampling modes: "rejection",
	// "uniform" (default rejection).
	Samplings []string
	// Hierarchies lists hierarchy shapes for the affine algorithms:
	// "deep", "flat" (default deep).
	Hierarchies []string
	// TargetErr is the stopping accuracy (default 1e-2).
	TargetErr float64
	// MaxTicks caps the simulated clock of the tick-driven engines
	// (boyd, geographic, affine-async; default 200,000,000). The
	// round-structured affine-hierarchical engine has no clock; its
	// runs are bounded by its own per-square round budgets instead.
	MaxTicks uint64
	// RadiusMultiplier is c in r = c·sqrt(log n / n) (default 1.5).
	RadiusMultiplier float64
	// Field selects initial measurements: "smooth" (worst-case
	// low-frequency field, default) or "gaussian" (iid normals).
	Field string
	// AsyncThrottle overrides the async engine's round-serialization
	// factor for affine-async tasks (default 0 = keep the engine's
	// built-in throttle). The paper scales this factor as n^a; large-n
	// async runs raise it together with AsyncLeafTicks — see the README
	// "Scale" section for a worked n=10^5 configuration.
	AsyncThrottle float64
	// AsyncLeafTicks overrides a leaf representative's round budget for
	// affine-async tasks (default 0 = engine default). Size it to the
	// leaf's actual mixing time when leaves are large (flat hierarchies
	// at big n).
	AsyncLeafTicks int
}

// TaskCount returns the number of runs the grid expands to, or 0 when
// the grid is invalid (Sweep would reject it).
func (s SweepSpec) TaskCount() int { return sweep.Spec(s).TaskCount() }

// SweepCoords are the grid-cell coordinates shared by tasks, cells and
// fits: one point of the algorithm × n × loss × fault-model × beta ×
// sampling × hierarchy grid. Its fields are the sweep's cell key's, in
// the same order, so the report converts each key in one step.
type SweepCoords struct {
	Algorithm string
	N         int
	LossRate  float64
	// FaultModel is the WithFaults spec the cell ran under; empty for
	// the perfect medium / plain LossRate axis.
	FaultModel string
	// Transport is the transport-reliability fragment (delay/reorder/dup/
	// arq) composed onto the fault model; empty when the cell ran without
	// a transport layer (the SweepSpec.Transports axis).
	Transport string
	// Recover reports whether the cell ran with the engines' recovery
	// protocols on (the SweepSpec.Recovery axis).
	Recover   bool
	Beta      float64
	Sampling  string
	Hierarchy string
}

// SweepResult is the outcome of one grid task.
type SweepResult struct {
	// TaskID is the task's position in the grid expansion; sorting by it
	// yields the canonical order.
	TaskID int
	// SweepCoords are the task's grid-cell coordinates; SeedIndex
	// selects the placement within the cell.
	SweepCoords
	SeedIndex int
	// TargetErr, MaxTicks, RadiusMultiplier, Field and the async budget
	// overrides record the run-level parameters the task executed
	// under, making each result self-describing and checkable on
	// resume.
	TargetErr        float64
	MaxTicks         uint64
	RadiusMultiplier float64
	Field            string
	AsyncThrottle    float64
	AsyncLeafTicks   int
	// NetSeed and RunSeed are the derived seeds the task ran with
	// (recorded so any single task can be replayed in isolation).
	NetSeed uint64
	RunSeed uint64
	// Converged, FinalErr, Transmissions and Breakdown mirror Result.
	Converged     bool
	FinalErr      float64
	Transmissions uint64
	// SimSeconds mirrors Result.SimSeconds: simulated seconds to converge
	// under the task's transport layer, zero without one.
	SimSeconds float64
	Breakdown  map[string]uint64
	// FarExchanges counts long-range affine exchanges (affine algorithms
	// only).
	FarExchanges uint64
	// Err carries a per-task failure (e.g. no connected instance at the
	// derived seeds); the result fields are zero when set.
	Err string
}

// SweepDist summarizes a metric across the seeds of one grid cell.
type SweepDist struct {
	Mean, Std, Min, Max, P50, P90 float64
}

// SweepCell aggregates the seeds of one grid cell.
type SweepCell struct {
	SweepCoords
	// Count is the number of successful runs; ConvergedCount how many
	// reached the target; Errors how many tasks failed outright.
	Count          int
	ConvergedCount int
	Errors         int
	Transmissions  SweepDist
	FinalErr       SweepDist
	// SimSeconds summarizes simulated time to converge; nil for cells that
	// ran without a transport layer.
	SimSeconds *SweepDist
}

// SweepFit is a fitted power law transmissions ≈ Constant·n^Exponent
// across the cells of one algorithm/parameter line. Its coordinates
// carry N = 0: a fit aggregates across network sizes.
type SweepFit struct {
	SweepCoords
	Points   int
	Exponent float64
	Constant float64
	R2       float64
}

// SweepLossFit is a fitted power law transmissions ≈ C·x^Exponent with
// x = 1/(1−p) the retransmission factor of a cell's effective loss rate
// p — the cost-vs-loss scaling of one algorithm at one network size
// across the sweep's fault grid (LossRates and the loss content of
// FaultModels alike).
type SweepLossFit struct {
	Algorithm string
	N         int
	Recover   bool
	Beta      float64
	Sampling  string
	Hierarchy string
	Points    int
	Exponent  float64
	Constant  float64
	R2        float64
}

// SweepRouteCacheStats reports the effectiveness of the sweep's shared
// route/flood caches: tasks running on the same network build pool their
// deterministic routing work (routes and floods are pure functions of
// the immutable graph), so repeated rep↔rep routes and square floods are
// computed once per network instead of once per task.
type SweepRouteCacheStats struct {
	RouteHits, RouteMisses uint64
	FloodHits, FloodMisses uint64
}

// RouteHitRate returns the fraction of route lookups served from cache
// (0 when no routing happened).
func (s SweepRouteCacheStats) RouteHitRate() float64 {
	if total := s.RouteHits + s.RouteMisses; total > 0 {
		return float64(s.RouteHits) / float64(total)
	}
	return 0
}

// FloodHitRate returns the fraction of flood lookups served from cache.
func (s SweepRouteCacheStats) FloodHitRate() float64 {
	if total := s.FloodHits + s.FloodMisses; total > 0 {
		return float64(s.FloodHits) / float64(total)
	}
	return 0
}

// SweepNetBuildStats summarizes the sweep's network constructions: how
// many distinct networks the grid deduplicated to, the wall-clock their
// construction took (summed across builds, which may overlap in time),
// and their resident footprint.
type SweepNetBuildStats struct {
	// Networks is the number of distinct networks the grid materialized;
	// Nodes sums their node counts.
	Networks int
	Nodes    int64
	// Loads is how many of them were loaded from the snapshot store
	// (WithSweepNetworkDir) instead of being constructed.
	Loads int
	// BuildSeconds is the summed construction wall-clock; LoadSeconds the
	// summed snapshot-load wall-clock.
	BuildSeconds float64
	LoadSeconds  float64
	// GraphBytes and HierarchyBytes are the summed resident footprints.
	GraphBytes     int64
	HierarchyBytes int64
	// StoreMisses counts store lookups that fell back to a build;
	// StoreBytes the snapshot bytes this run persisted for later runs.
	StoreMisses uint64
	StoreBytes  int64
}

// BytesPerNode is the summed network footprint divided by the summed
// node count (0 when nothing was built).
func (s SweepNetBuildStats) BytesPerNode() float64 {
	if s.Nodes == 0 {
		return 0
	}
	return float64(s.GraphBytes+s.HierarchyBytes) / float64(s.Nodes)
}

// SweepReport is the output of one sweep: per-task results in canonical
// (task ID) order plus the aggregation over grid cells.
type SweepReport struct {
	Results []SweepResult
	Cells   []SweepCell
	Fits    []SweepFit
	// LossFits reports cost-vs-loss scaling exponents across the fault
	// grid (empty without at least two distinct effective loss rates).
	LossFits []SweepLossFit
	// UnconvergedCells counts the cells left out of Fits and LossFits
	// because a run in them missed the target error: a diverged run's
	// transmissions are not a cost to ε.
	UnconvergedCells int
	// RouteCache summarizes the shared route/flood cache counters.
	RouteCache SweepRouteCacheStats
	// NetBuild summarizes the construct phase: distinct network builds,
	// their wall-clock, and the bytes-per-node footprint.
	NetBuild SweepNetBuildStats
	// Metrics is the sweep's aggregated observability snapshot: every
	// engine counter and histogram bucket accumulated across the tasks
	// this call executed (resumed tasks did not run, so they contribute
	// nothing), keyed by Prometheus exposition name — the same catalogue
	// as Result.Metrics. Deterministic for a fixed spec at any worker
	// count: integer event counts commute, and scrape-time gauges are
	// excluded.
	Metrics map[string]float64
}

// SweepOption configures Sweep.
type SweepOption func(*sweepConfig)

type sweepConfig struct {
	workers      int
	buildWorkers int
	jsonl        io.Writer
	progress     func(done, total int)
	resume       []SweepResult
	metrics      *MetricsRegistry
	leaseSize    int
	leaseTimeout time.Duration
	workerName   string
	netDir       string
}

// WithSweepWorkers sizes the worker pool (default GOMAXPROCS). Results
// are bit-identical for every worker count.
func WithSweepWorkers(n int) SweepOption {
	return func(c *sweepConfig) { c.workers = n }
}

// WithSweepBuildWorkers sizes the intra-network construction parallelism:
// each distinct network build (graph radius scan, hierarchy tables)
// shards across n goroutines (0 selects all cores, 1 builds serially).
// Every value builds byte-identical networks, so — like the task worker
// pool — it never changes results. Useful when a grid has few distinct
// networks but each is large (e.g. a single n = 10⁶ cell).
func WithSweepBuildWorkers(n int) SweepOption {
	return func(c *sweepConfig) { c.buildWorkers = n }
}

// WithSweepJSONL streams every task result to w as one JSON object per
// line, in completion order. A file sorted by task_id is byte-identical
// regardless of worker count, and feeds WithSweepResume.
func WithSweepJSONL(w io.Writer) SweepOption {
	return func(c *sweepConfig) { c.jsonl = w }
}

// WithSweepProgress reports completion after every task (done out of
// total). Calls are serialized, never concurrent.
func WithSweepProgress(fn func(done, total int)) SweepOption {
	return func(c *sweepConfig) { c.progress = fn }
}

// WithSweepResume seeds the sweep with results from an interrupted run
// of the same spec (typically parsed by ReadSweepResults from its JSONL
// output). Their tasks are not re-executed; the prior results are
// validated against the current grid — Sweep fails if an ID's
// coordinates disagree, rather than silently mixing two different grids
// — and merged into the returned report, so Results, Cells and Fits
// always cover the whole grid. Only newly executed tasks are streamed
// to WithSweepJSONL.
func WithSweepResume(prior []SweepResult) SweepOption {
	return func(c *sweepConfig) { c.resume = prior }
}

// WithSweepNetworkDir roots a content-addressed network snapshot store
// at dir (created if absent): networks whose snapshot is already
// persisted load in one sequential I/O pass instead of being rebuilt,
// and fresh builds are persisted for later runs. Loaded networks are
// bit-identical to built ones, so results are unaffected; corrupted
// entries are detected by checksum and rebuilt transparently. Concurrent
// sweeps — including distributed workers on one machine — may share the
// directory: entries are written atomically.
func WithSweepNetworkDir(dir string) SweepOption {
	return func(c *sweepConfig) { c.netDir = dir }
}

// WithSweepMetrics makes the sweep report into m instead of a private
// registry, so m can be scraped live (e.g. served over HTTP by
// cmd/sweep -listen) while the sweep runs: per-engine event counters,
// task progress, route-cache hit counters and channel-pool reuse.
// SweepReport.Metrics is snapshotted from the same registry at the end.
// Observability never changes execution: task results are byte-identical
// with or without it.
func WithSweepMetrics(m *MetricsRegistry) SweepOption {
	return func(c *sweepConfig) { c.metrics = m }
}

// ReadSweepResults parses JSONL sweep output (as written by
// WithSweepJSONL) back into results, tolerating a truncated final line
// from a killed run. Feed them to WithSweepResume to continue an
// interrupted sweep — when everything already completed, the resumed
// Sweep executes nothing and just rebuilds the full report.
func ReadSweepResults(r io.Reader) ([]SweepResult, error) {
	internal, err := sweep.ReadResults(r)
	if err != nil {
		return nil, err
	}
	out := make([]SweepResult, 0, len(internal))
	for _, r := range internal {
		out = append(out, fromInternalResult(r))
	}
	return out, nil
}

// WriteSweepResults writes results to w in the JSONL form
// WithSweepJSONL streams — one canonical JSON object per line — which
// ReadSweepResults reads back. A SweepResult does not hold every field
// the sink records (an affine task's hierarchy_ell is not one of its
// fields), so a sink line rewritten through it is not always
// byte-identical to the original.
func WriteSweepResults(w io.Writer, results []SweepResult) error {
	sink := sweep.NewJSONL(w)
	for _, r := range results {
		if err := sink.Write(toInternalResult(r)); err != nil {
			return err
		}
	}
	return nil
}

// Sweep expands the grid and runs every task on a worker pool.
// Per-task seeds derive from BaseSeed and the task's coordinates — never
// from scheduling — so the same spec produces bit-identical results
// whether it runs on one core or all of them. On context cancellation
// the partial report is returned alongside ctx.Err().
func Sweep(ctx context.Context, spec SweepSpec, opts ...SweepOption) (*SweepReport, error) {
	var cfg sweepConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := cfg.metrics
	if reg == nil {
		reg = NewMetricsRegistry()
	}
	var stats sweep.RunStats
	iopt := sweep.Options{
		Workers:      cfg.workers,
		BuildWorkers: cfg.buildWorkers,
		Progress:     cfg.progress,
		Stats:        &stats,
		Obs:          reg.reg,
	}
	if cfg.netDir != "" {
		store, err := netstore.Open(cfg.netDir)
		if err != nil {
			return nil, err
		}
		iopt.NetStore = store
	}
	for _, r := range cfg.resume {
		iopt.Resume = append(iopt.Resume, toInternalResult(r))
	}
	if cfg.jsonl != nil {
		iopt.Sink = sweep.NewJSONL(cfg.jsonl)
	}
	results, err := sweep.Run(ctx, sweep.Spec(spec), iopt)
	return buildReport(results, reg.reg.Flatten(), stats), err
}

// buildReport assembles the public report from internal results plus the
// run's metrics and statistics — shared by the local Sweep and the
// distributed SweepServe, so both report identically.
func buildReport(results []sweep.TaskResult, metrics map[string]float64, stats sweep.RunStats) *SweepReport {
	nb := stats.Net
	rep := &SweepReport{
		Results:    make([]SweepResult, 0, len(results)),
		Metrics:    metrics,
		RouteCache: SweepRouteCacheStats(stats.Route),
		NetBuild: SweepNetBuildStats{
			Networks:       nb.Networks,
			Nodes:          nb.Nodes,
			Loads:          nb.Loads,
			BuildSeconds:   nb.BuildTime.Seconds(),
			LoadSeconds:    nb.LoadTime.Seconds(),
			GraphBytes:     nb.GraphBytes,
			HierarchyBytes: nb.HierBytes,
			StoreMisses:    nb.StoreMisses,
			StoreBytes:     nb.StoreBytes,
		},
	}
	for _, r := range results {
		rep.Results = append(rep.Results, fromInternalResult(r))
	}
	agg := sweep.Aggregate(results)
	rep.UnconvergedCells = agg.UnconvergedCells
	for _, c := range agg.Cells {
		cell := SweepCell{
			SweepCoords:    SweepCoords(c.CellKey),
			Count:          c.Count,
			ConvergedCount: c.ConvergedCount,
			Errors:         c.Errors,
			Transmissions:  SweepDist(c.Transmissions),
			FinalErr:       SweepDist(c.FinalErr),
		}
		if c.SimSeconds != nil {
			d := SweepDist(*c.SimSeconds)
			cell.SimSeconds = &d
		}
		rep.Cells = append(rep.Cells, cell)
	}
	for _, f := range agg.LossFits {
		rep.LossFits = append(rep.LossFits, SweepLossFit{
			Algorithm: f.Algorithm,
			N:         f.N,
			Recover:   f.Recover,
			Beta:      f.Beta,
			Sampling:  f.Sampling,
			Hierarchy: f.Hierarchy,
			Points:    f.Points,
			Exponent:  f.Exponent,
			Constant:  f.Constant,
			R2:        f.R2,
		})
	}
	for _, f := range agg.Fits {
		rep.Fits = append(rep.Fits, SweepFit{
			SweepCoords: SweepCoords(f.CellKey),
			Points:      f.Points,
			Exponent:    f.Exponent,
			Constant:    f.Constant,
			R2:          f.R2,
		})
	}
	return rep
}

func fromInternalResult(r sweep.TaskResult) SweepResult {
	return SweepResult{
		TaskID:           r.TaskID,
		SweepCoords:      SweepCoords(r.Cell()),
		SeedIndex:        r.SeedIndex,
		TargetErr:        r.TargetErr,
		MaxTicks:         r.MaxTicks,
		RadiusMultiplier: r.RadiusMultiplier,
		Field:            r.Field,
		AsyncThrottle:    r.AsyncThrottle,
		AsyncLeafTicks:   r.AsyncLeafTicks,
		NetSeed:          r.NetSeed,
		RunSeed:          r.RunSeed,
		Converged:        r.Converged,
		FinalErr:         r.FinalErr,
		Transmissions:    r.Transmissions,
		SimSeconds:       r.SimSeconds,
		Breakdown:        r.Breakdown,
		FarExchanges:     r.FarExchanges,
		Err:              r.Error,
	}
}

func toInternalResult(r SweepResult) sweep.TaskResult {
	return sweep.TaskResult{
		TaskID: r.TaskID,
		Params: sweep.Params{
			Algorithm:        r.Algorithm,
			N:                r.N,
			SeedIndex:        r.SeedIndex,
			LossRate:         r.LossRate,
			FaultModel:       r.FaultModel,
			Transport:        r.Transport,
			Recover:          r.Recover,
			Beta:             r.Beta,
			Sampling:         r.Sampling,
			Hierarchy:        r.Hierarchy,
			TargetErr:        r.TargetErr,
			MaxTicks:         r.MaxTicks,
			RadiusMultiplier: r.RadiusMultiplier,
			Field:            r.Field,
			AsyncThrottle:    r.AsyncThrottle,
			AsyncLeafTicks:   r.AsyncLeafTicks,
		},
		NetSeed:       r.NetSeed,
		RunSeed:       r.RunSeed,
		Converged:     r.Converged,
		FinalErr:      r.FinalErr,
		Transmissions: r.Transmissions,
		SimSeconds:    r.SimSeconds,
		Breakdown:     r.Breakdown,
		FarExchanges:  r.FarExchanges,
		Error:         r.Err,
	}
}
