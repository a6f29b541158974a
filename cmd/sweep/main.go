// Command sweep runs a parameter grid of gossip-averaging scenarios
// concurrently and writes one JSON result per task, plus an aggregation
// (per-cell statistics and scaling-exponent fits) at the end.
//
// The grid comes from flags:
//
//	sweep -algos boyd,geographic,affine-hierarchical -ns 256,512,1024 -seeds 2 -out grid.jsonl
//
// A fault-model axis sweeps radio media (burst loss, node churn) across
// every algorithm:
//
//	sweep -algos boyd,push-sum -ns 256 -faults perfect,ge:0.05/0.2/0.01/0.6,churn:50000/10000
//
// or from a JSON config file holding a geogossip.SweepSpec:
//
//	sweep -config grid.json -out grid.jsonl
//
// Output is resumable: re-running with -resume skips every task already
// present in -out (a truncated final line from a killed run is
// tolerated) and appends the rest. Results are bit-identical for any
// -workers value, so a resumed or parallelized sweep matches a
// single-core run line for line once sorted by task id.
package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"geogossip"
	"geogossip/internal/engine"
	"geogossip/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		// Errors from the sweep package already name it; the rest get
		// the command's name here, so every error carries one prefix.
		msg := err.Error()
		if !strings.HasPrefix(msg, "sweep: ") {
			msg = "sweep: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		algos      = fs.String("algos", "boyd,geographic,affine-hierarchical", "comma-separated algorithms: "+strings.Join(engine.Names(), ", "))
		ns         = fs.String("ns", "256,512,1024", "comma-separated network sizes")
		seeds      = fs.Int("seeds", 1, "independent placements per grid cell")
		baseSeed   = fs.Uint64("base-seed", 1, "base seed all per-task seeds derive from")
		loss       = fs.String("loss", "", "comma-separated packet-loss rates (default 0)")
		faults     = fs.String("faults", "", "comma-separated fault models: perfect, bernoulli:P, ge:PGB/PBG/EG/EB, jam:CX/CY/R/LOSS[/FROM/UNTIL[/PERIOD]], mjam:CX/CY/R/LOSS/VX/VY, jampoly:LOSS/X1/Y1/..., cut:A/B/C/FROM/UNTIL, churn:UP/DOWN, repchurn:UP/DOWN, hubchurn:UP/DOWN/K, composable with + (default perfect)")
		transports = fs.String("transports", "", "comma-separated transport-reliability fragments to compose onto every fault model: perfect (no transport), delay:fixed/D, delay:uniform/LO/HI, delay:exp/MEAN, reorder:P, dup:P, arq:RETRIES/TIMEOUT/BACKOFF, composable with + (default none)")
		recovery   = fs.String("recovery", "", "comma-separated recovery settings to cross with the grid: off,on (default off; on = re-election for the affine algorithms, restart-from-neighbor resync for boyd/geographic)")
		betas      = fs.String("betas", "", "comma-separated affine multipliers (default engine 2/5)")
		sampling   = fs.String("sampling", "", "comma-separated sampling modes: rejection,uniform")
		hier       = fs.String("hier", "", "comma-separated hierarchy shapes: deep,flat")
		target     = fs.Float64("target", 1e-2, "relative l2 accuracy every run stops at")
		maxTicks   = fs.Uint64("max-ticks", 0, "simulated clock cap per run (0 = default)")
		radius     = fs.Float64("radius", 0, "radius multiplier c (0 = default 1.5)")
		field      = fs.String("field", "", "initial field: smooth or gaussian (default smooth)")
		config     = fs.String("config", "", "JSON file holding the full spec (overrides grid flags)")
		workers    = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		workersB   = fs.Int("workers-build", 0, "construction parallelism per network build: graph scan and hierarchy tables shard across this many goroutines (0 = all cores, 1 = serial; networks are byte-identical at any value)")
		asyncTh    = fs.Float64("async-throttle", 0, "override the async engine's round-serialization factor (0 = engine default; raise with -async-leaf-ticks for large-n async runs, see README Scale)")
		asyncLT    = fs.Int("async-leaf-ticks", 0, "override the async engine's leaf round budget in leaf-rep clock ticks (0 = engine default)")
		out        = fs.String("out", "-", "JSONL output path (- = stdout)")
		resume     = fs.Bool("resume", false, "skip tasks already present in -out and append")
		quiet      = fs.Bool("quiet", false, "suppress progress reporting on stderr")
		agg        = fs.Bool("agg", true, "print per-cell statistics and scaling fits")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the sweep to FILE (go tool pprof)")
		memProf    = fs.String("memprofile", "", "write a heap profile to FILE after the sweep")
		listen     = fs.String("listen", "", "serve live observability on ADDR while sweeping: /metrics (Prometheus), /progress (JSON), /debug/pprof/*")
		gz         = fs.Bool("gzip", false, "gzip-compress the -out stream (implied by a .gz suffix; -resume reads both forms transparently)")
		serve      = fs.String("serve", "", "run as distributed-sweep coordinator on ADDR (host:port): lease the grid to -join workers and write -out in canonical task order, byte-identical to a single-process -workers 1 run")
		join       = fs.String("join", "", "run as distributed-sweep worker for the coordinator at ADDR; grid and output flags are ignored (the spec comes from the coordinator)")
		leaseN     = fs.Int("lease", 0, "with -serve: tasks per lease (0 = twice the worker's slot count)")
		leaseTO    = fs.Duration("lease-timeout", 0, "with -serve: silence after which a worker's leases are re-issued (0 = 30s)")
		netDir     = fs.String("netdir", "", "network snapshot store directory: load already-persisted networks instead of rebuilding them and persist fresh builds (created if absent; results are bit-identical either way; shareable between runs and between -join workers on one machine)")
		name       = fs.String("name", "", "with -join: worker display name in coordinator gauges (default host/pid)")
		rejoin     = fs.Int("rejoin", 0, "with -join: redial attempts after a failed or lost coordinator connection, 1s apart (lets workers start before the coordinator and outlive its restarts)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serve != "" && *join != "" {
		return fmt.Errorf("-serve and -join are mutually exclusive")
	}

	// Ctrl-C stops scheduling and drains in-flight tasks; with -resume the
	// next invocation picks up where this one stopped (a restarted -serve
	// coordinator re-validates -out and re-leases only incomplete tasks).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *join != "" {
		return runJoin(ctx, *join, *rejoin, *workers, *workersB, *name, *netDir, *quiet)
	}

	var spec geogossip.SweepSpec
	if *config != "" {
		raw, err := os.ReadFile(*config)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("config %s: %w", *config, err)
		}
	} else {
		var err error
		spec = geogossip.SweepSpec{
			Seeds:            *seeds,
			BaseSeed:         *baseSeed,
			TargetErr:        *target,
			MaxTicks:         *maxTicks,
			RadiusMultiplier: *radius,
			Field:            *field,
			AsyncThrottle:    *asyncTh,
			AsyncLeafTicks:   *asyncLT,
			Algorithms:       splitList(*algos),
			FaultModels:      splitList(*faults),
			Transports:       splitList(*transports),
			Samplings:        splitList(*sampling),
			Hierarchies:      splitList(*hier),
		}
		if spec.Ns, err = parseInts(*ns); err != nil {
			return fmt.Errorf("-ns: %w", err)
		}
		if spec.LossRates, err = parseFloats(*loss); err != nil {
			return fmt.Errorf("-loss: %w", err)
		}
		if spec.Betas, err = parseFloats(*betas); err != nil {
			return fmt.Errorf("-betas: %w", err)
		}
		if spec.Recovery, err = parseRecovery(*recovery); err != nil {
			return fmt.Errorf("-recovery: %w", err)
		}
	}

	if *resume && *out == "-" {
		return fmt.Errorf("-resume needs -out FILE: stdout output cannot be re-read")
	}

	opts := []geogossip.SweepOption{
		geogossip.WithSweepWorkers(*workers),
		geogossip.WithSweepBuildWorkers(*workersB),
	}
	if *netDir != "" {
		opts = append(opts, geogossip.WithSweepNetworkDir(*netDir))
	}

	// -listen exposes the sweep live over HTTP; the registry it serves is
	// the one the sweep reports into. Exposition is read-only and atomic,
	// so results are byte-identical with or without it.
	if *listen != "" {
		m := geogossip.NewMetricsRegistry()
		ln, err := serveObservability(*listen, m)
		if err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
		defer ln.Close()
		opts = append(opts, geogossip.WithSweepMetrics(m))
		if !*quiet {
			fmt.Fprintf(os.Stderr, "observability: http://%s/metrics /progress /debug/pprof/\n", ln.Addr())
		}
	}

	// Resolve the output stream and, under -resume, the prior results.
	gzOut := *gz || strings.HasSuffix(*out, ".gz")
	var sink io.Writer = os.Stdout
	if *out != "-" {
		var prior []geogossip.SweepResult
		if *resume {
			if f, err := os.Open(*out); err == nil {
				prior, err = geogossip.ReadSweepResults(f)
				f.Close()
				if err != nil {
					return fmt.Errorf("resume from %s: %w", *out, err)
				}
				if gzOut {
					// A gzip stream cannot be truncated back to a line
					// boundary in place; rewrite the file as one fresh member
					// holding exactly the recovered results (re-encoding is
					// byte-identical), then append new ones as a second member.
					if err := rewriteGzip(*out); err != nil {
						return err
					}
				} else if err := truncateToLastLine(*out); err != nil {
					// A killed run can leave a truncated final line; drop it so
					// the appended results start on a clean line boundary.
					return err
				}
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if *resume {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(*out, mode, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = f
		if len(prior) > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d of %d tasks already done\n",
				len(prior), spec.TaskCount())
			// Sweep validates the prior results against the current grid
			// and folds them into the report, so the aggregation below
			// always covers the whole grid.
			opts = append(opts, geogossip.WithSweepResume(prior))
		}
	}
	if gzOut {
		zw := gzip.NewWriter(sink)
		defer zw.Close()
		sink = zw
	}
	opts = append(opts, geogossip.WithSweepJSONL(sink))
	if !*quiet {
		opts = append(opts, geogossip.WithSweepProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d tasks (%.0f%%)", done, total,
				100*float64(done)/float64(total))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	runStart := time.Now()
	var rep *geogossip.SweepReport
	var err error
	if *serve != "" {
		ln, lerr := net.Listen("tcp", *serve)
		if lerr != nil {
			return fmt.Errorf("-serve: %w", lerr)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "coordinator: leasing %d tasks on %s\n", spec.TaskCount(), ln.Addr())
		}
		opts = append(opts,
			geogossip.WithSweepLeaseSize(*leaseN),
			geogossip.WithSweepLeaseTimeout(*leaseTO))
		rep, err = geogossip.SweepServe(ctx, ln, spec, opts...)
	} else {
		rep, err = geogossip.Sweep(ctx, spec, opts...)
	}
	runWall := time.Since(runStart)
	if rep != nil && !*quiet {
		printPhaseStats(os.Stderr, rep.NetBuild, runWall)
		printCacheStats(os.Stderr, rep.RouteCache)
		printMemStats(os.Stderr, memBefore)
	}
	if *memProf != "" && rep != nil {
		if err := writeHeapProfile(*memProf); err != nil {
			return err
		}
	}
	if err != nil {
		if err == context.Canceled && rep != nil {
			fmt.Fprintf(os.Stderr, "\ninterrupted after %d tasks; re-run with -resume to continue\n",
				len(rep.Results))
			return nil
		}
		return err
	}
	if *agg {
		aggStart := time.Now()
		printAggregation(os.Stdout, rep)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "phase aggregate: %v wall, peak RSS %s\n",
				time.Since(aggStart).Round(time.Millisecond), rssLabel())
		}
	}
	return nil
}

// runJoin runs the worker side of a distributed sweep: execute leases
// from the coordinator at addr until its grid completes, redialing up to
// rejoin times on a failed or lost connection (so workers may start
// before the coordinator and outlive its restarts — the coordinator's
// lease re-issue and resume logic replays whatever was lost).
func runJoin(ctx context.Context, addr string, rejoin, workers, buildWorkers int, name, netDir string, quiet bool) error {
	opts := []geogossip.SweepOption{
		geogossip.WithSweepWorkers(workers),
		geogossip.WithSweepBuildWorkers(buildWorkers),
		geogossip.WithSweepWorkerName(name),
	}
	if netDir != "" {
		opts = append(opts, geogossip.WithSweepNetworkDir(netDir))
	}
	if !quiet {
		opts = append(opts, geogossip.WithSweepProgress(func(done, _ int) {
			fmt.Fprintf(os.Stderr, "\rworker: %d task(s) done", done)
		}))
	}
	for attempt := 0; ; attempt++ {
		err := geogossip.SweepJoin(ctx, addr, opts...)
		if !quiet {
			fmt.Fprintln(os.Stderr)
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || attempt >= rejoin {
			return err
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "worker: %v; rejoining %s (attempt %d/%d)\n",
				err, addr, attempt+1, rejoin)
		}
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// rewriteGzip rewrites path as a single fresh gzip stream holding
// exactly the results it can read back — the gzip analogue of
// truncateToLastLine: a killed -gzip run leaves a stream cut mid-block,
// which cannot be trimmed in place, so the recovered lines are
// re-encoded behind a temp-file rename. They go through the sweep's own
// result type and sink, which keep every field the sink wrote, so the
// encoding is canonical and the lines come back byte-identical.
func rewriteGzip(path string) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	results, err := sweep.ReadResults(in)
	in.Close()
	if err != nil {
		return err
	}
	tmp := path + ".resume-tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	sink := sweep.NewJSONL(zw)
	for _, r := range results {
		if err == nil {
			err = sink.Write(r)
		}
	}
	if err = errors.Join(err, zw.Close(), f.Close()); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// printPhaseStats reports the construct and run phases: distinct network
// builds with their summed construction wall-clock and bytes-per-node
// footprint, then the whole-sweep wall-clock, each with the process's
// peak RSS so far (VmHWM; includes construction — the high-water figure
// the n=10⁶ recipe budgets against).
func printPhaseStats(w io.Writer, nb geogossip.SweepNetBuildStats, runWall time.Duration) {
	if nb.Networks > 0 {
		fmt.Fprintf(w, "phase construct: %d network(s), %d nodes, %.2fs build wall, %.1f MB resident (%.1f bytes/node)\n",
			nb.Networks, nb.Nodes, nb.BuildSeconds,
			float64(nb.GraphBytes+nb.HierarchyBytes)/(1<<20), nb.BytesPerNode())
	}
	if nb.Loads > 0 || nb.StoreMisses > 0 || nb.StoreBytes > 0 {
		fmt.Fprintf(w, "netstore: %d loaded, %d built, %.2fs load wall, %.1f MB written\n",
			nb.Loads, nb.StoreMisses, nb.LoadSeconds, float64(nb.StoreBytes)/(1<<20))
	}
	fmt.Fprintf(w, "phase run: %v wall, peak RSS %s\n", runWall.Round(time.Millisecond), rssLabel())
}

// rssLabel renders the process peak RSS, or "n/a" where the kernel does
// not expose it.
func rssLabel() string {
	if rss := peakRSSBytes(); rss > 0 {
		return fmt.Sprintf("%.1f MB", float64(rss)/(1<<20))
	}
	return "n/a"
}

// peakRSSBytes reads the process's peak resident set size (VmHWM) from
// /proc/self/status, returning 0 on platforms without procfs.
func peakRSSBytes() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// printCacheStats extends the progress summary with the shared route
// cache's effectiveness: how much deterministic routing work the tasks
// of each network build pooled instead of recomputing.
func printCacheStats(w io.Writer, s geogossip.SweepRouteCacheStats) {
	if s.RouteHits+s.RouteMisses+s.FloodHits+s.FloodMisses == 0 {
		return
	}
	fmt.Fprintf(w, "route cache: %.1f%% route hits (%d/%d), %.1f%% flood hits (%d/%d)\n",
		100*s.RouteHitRate(), s.RouteHits, s.RouteHits+s.RouteMisses,
		100*s.FloodHitRate(), s.FloodHits, s.FloodHits+s.FloodMisses)
}

// writeHeapProfile forces a GC (so the profile reflects live data, not
// garbage) and writes the heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	return nil
}

func printAggregation(w io.Writer, rep *geogossip.SweepReport) {
	// The transport and simulated-time columns appear only when the grid
	// swept a transport axis, keeping transport-free tables unchanged.
	hasTransport := false
	for _, c := range rep.Cells {
		if c.Transport != "" || c.SimSeconds != nil {
			hasTransport = true
			break
		}
	}
	if hasTransport {
		fmt.Fprintf(w, "\n%-22s %6s %5s %-18s %-18s %3s %5s %5s  %14s %12s %10s %10s %6s\n",
			"algorithm", "n", "loss", "faults", "transport", "rec", "beta", "conv", "tx mean", "tx std", "sim s", "err p50", "fail")
	} else {
		fmt.Fprintf(w, "\n%-22s %6s %5s %-18s %3s %5s %5s  %14s %12s %10s %6s\n",
			"algorithm", "n", "loss", "faults", "rec", "beta", "conv", "tx mean", "tx std", "err p50", "fail")
	}
	for _, c := range rep.Cells {
		if hasTransport {
			simMean := 0.0
			if c.SimSeconds != nil {
				simMean = c.SimSeconds.Mean
			}
			fmt.Fprintf(w, "%-22s %6d %5.2f %-18s %-18s %3s %5.2f %2d/%2d  %14.0f %12.0f %10.3g %10.2e %6d\n",
				c.Algorithm, c.N, c.LossRate, faultLabel(c.FaultModel), faultLabel(c.Transport),
				recLabel(c.Recover), c.Beta, c.ConvergedCount, c.Count,
				c.Transmissions.Mean, c.Transmissions.Std, simMean, c.FinalErr.P50, c.Errors)
			continue
		}
		fmt.Fprintf(w, "%-22s %6d %5.2f %-18s %3s %5.2f %2d/%2d  %14.0f %12.0f %10.2e %6d\n",
			c.Algorithm, c.N, c.LossRate, faultLabel(c.FaultModel), recLabel(c.Recover), c.Beta,
			c.ConvergedCount, c.Count,
			c.Transmissions.Mean, c.Transmissions.Std, c.FinalErr.P50, c.Errors)
	}
	if len(rep.Fits) > 0 {
		fmt.Fprintf(w, "\nscaling fits (transmissions ~ C·n^p):\n")
		for _, f := range rep.Fits {
			label := ""
			if f.Transport != "" {
				label = " transport=" + f.Transport
			}
			fmt.Fprintf(w, "  %-22s loss=%.2f faults=%s%s rec=%s beta=%.2f  p=%.3f  C=%.3g  R2=%.3f  (%d sizes)\n",
				f.Algorithm, f.LossRate, faultLabel(f.FaultModel), label, recLabel(f.Recover), f.Beta, f.Exponent, f.Constant, f.R2, f.Points)
		}
	}
	if len(rep.LossFits) > 0 {
		fmt.Fprintf(w, "\ncost-vs-loss fits (transmissions ~ C·(1/(1-p))^q over the fault grid):\n")
		for _, f := range rep.LossFits {
			fmt.Fprintf(w, "  %-22s n=%-6d rec=%s beta=%.2f  q=%.3f  C=%.3g  R2=%.3f  (%d cells)\n",
				f.Algorithm, f.N, recLabel(f.Recover), f.Beta, f.Exponent, f.Constant, f.R2, f.Points)
		}
	}
}

// recLabel renders the recovery column.
func recLabel(on bool) string {
	if on {
		return "on"
	}
	return "-"
}

// parseRecovery reads the -recovery axis: on/off (also true/false, 1/0).
func parseRecovery(s string) ([]bool, error) {
	var out []bool
	for _, part := range splitList(s) {
		switch strings.ToLower(part) {
		case "on", "true", "1":
			out = append(out, true)
		case "off", "false", "0":
			out = append(out, false)
		default:
			return nil, fmt.Errorf("bad recovery setting %q (want on or off)", part)
		}
	}
	return out, nil
}

// printMemStats surfaces the sweep's allocation and GC footprint — the
// quantity the pooled run states exist to hold down at grid scale — as
// deltas against the pre-sweep baseline, so setup work (flag parsing,
// resume-file reading) is not attributed to the grid.
func printMemStats(w io.Writer, before runtime.MemStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "mem: %.1f MB allocated by the sweep (%d objects), %.1f MB heap in use, %d GC cycles\n",
		float64(ms.TotalAlloc-before.TotalAlloc)/(1<<20), ms.Mallocs-before.Mallocs,
		float64(ms.HeapInuse)/(1<<20), ms.NumGC-before.NumGC)
}

// faultLabel renders the fault-model column, naming the default axis
// value explicitly so the table stays scannable.
func faultLabel(fm string) string {
	if fm == "" {
		return "-"
	}
	return fm
}

// truncateToLastLine cuts path back to the end of its last complete
// (newline-terminated) line, scanning backwards in chunks so multi-GB
// output files are never loaded whole.
func truncateToLastLine(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	for end := size; end > 0; {
		start := end - chunk
		if start < 0 {
			start = 0
		}
		b := buf[:end-start]
		if _, err := f.ReadAt(b, start); err != nil {
			return err
		}
		if end == size && b[len(b)-1] == '\n' {
			return nil // already ends on a line boundary
		}
		if i := strings.LastIndexByte(string(b), '\n'); i >= 0 {
			return os.Truncate(path, start+int64(i)+1)
		}
		end = start
	}
	return os.Truncate(path, 0) // no newline at all: drop the partial line
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
