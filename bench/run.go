package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"geogossip"
	"geogossip/internal/netstore"
	"geogossip/internal/obs"
	"geogossip/internal/routing"
	"geogossip/internal/sweep"
)

// config is what every run needs besides its workload.
type config struct {
	// workers is both the task-slot count and the per-network
	// construction parallelism: nproc, so the load never exceeds the
	// machine's cores.
	workers int
	// workdir holds the scratch network stores; each is removed when its
	// pass ends.
	workdir string
	log     io.Writer
}

// stores hands each pass the network store its workload calls for.
type stores struct {
	c    *config
	mode storeMode
	warm string // the prepared store of a storeWarm workload
}

// open returns the store for one pass (nil for storeNone) and the
// function that releases it: a cold pass gets a fresh empty directory, a
// warm pass the prepared one.
func (s *stores) open() (*netstore.Store, string, func(), error) {
	switch s.mode {
	case storeCold:
		dir, err := os.MkdirTemp(s.c.workdir, "cold-")
		if err != nil {
			return nil, "", nil, err
		}
		st, err := netstore.Open(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, err
		}
		return st, dir, func() { os.RemoveAll(dir) }, nil
	case storeWarm:
		st, err := netstore.Open(s.warm)
		return st, s.warm, func() {}, err
	}
	return nil, "", func() {}, nil
}

// prepareWarm fills a fresh store with the workload's networks, in a
// set-up child, and returns the function that removes it.
func (s *stores) prepareWarm(w *workload) (func(), error) {
	if s.mode != storeWarm {
		return func() {}, nil
	}
	dir, err := os.MkdirTemp(s.c.workdir, "warm-")
	if err != nil {
		return nil, err
	}
	if _, err := s.setupChild(w, dir); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("prepare store: %w", err)
	}
	s.warm = dir
	return func() { os.RemoveAll(dir) }, nil
}

// setupSample is what one set-up child reports.
type setupSample struct {
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// setupChild sets the workload's networks up in a fresh process of this
// binary (-setup), through the store in dir when dir is not "", so each
// sample starts cold and its peak RSS is the set-up's alone. A cold
// workload's child gives each repetition an empty store.
func (s *stores) setupChild(w *workload, dir string) (setupSample, error) {
	var sample setupSample
	self, err := os.Executable()
	if err != nil {
		return sample, err
	}
	spec, _ := w.setupSpecs()
	raw, err := json.Marshal(spec)
	if err != nil {
		return sample, err
	}
	args := []string{"-workdir", s.c.workdir, "-setup", string(raw)}
	if dir != "" {
		args = append(args, "-store", dir)
	}
	if s.mode == storeCold {
		args = append(args, "-cold")
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, s.c.log
	if err := cmd.Run(); err != nil {
		return sample, fmt.Errorf("set-up child: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &sample); err != nil {
		return sample, fmt.Errorf("set-up child: %w", err)
	}
	return sample, nil
}

// setupRepeatTime bounds how long a set-up child repeats a short set-up:
// it sets up again while its repetitions have taken less in all. The
// first repetition warms the process and is left out of the median when
// there are more. A set-up longer than this, as at n = 131072, runs once.
const setupRepeatTime = 150 * time.Millisecond

// setupRepeat sets spec's networks up through geogossip.Sweep, repeating
// as setupRepeatTime says, and reports the median set-up time with the
// peak RSS after the first repetition, which is the set-up's alone. With
// cold, every repetition after the first gets a fresh empty store under
// dir.
func setupRepeat(spec geogossip.SweepSpec, c *config, dir string, cold bool) (setupSample, error) {
	var (
		times []float64
		rss   float64
	)
	start := time.Now()
	for len(times) == 0 || time.Since(start) < setupRepeatTime {
		d := dir
		if cold && dir != "" && len(times) > 0 {
			var err error
			if d, err = os.MkdirTemp(dir, "rep-"); err != nil {
				return setupSample{}, err
			}
		}
		s, err := setupSweep(spec, c, d)
		if err != nil {
			return setupSample{}, err
		}
		if len(times) == 0 {
			rss = peakRSSMB()
		}
		times = append(times, s)
	}
	if len(times) > 1 {
		times = times[1:]
	}
	return setupSample{SetupS: median(times), PeakRSSMB: rss}, nil
}

// setupSweep runs a setup-only grid through geogossip.Sweep with the
// given store directory ("" for none) and returns its set-up time,
// NetBuild.BuildSeconds + LoadSeconds.
func setupSweep(spec geogossip.SweepSpec, c *config, dir string) (float64, error) {
	opts := []geogossip.SweepOption{geogossip.WithSweepWorkers(c.workers), geogossip.WithSweepBuildWorkers(c.workers)}
	if dir != "" {
		opts = append(opts, geogossip.WithSweepNetworkDir(dir))
	}
	rep, err := geogossip.Sweep(context.Background(), spec, opts...)
	if err != nil {
		return 0, fmt.Errorf("setup sweep: %w", err)
	}
	return rep.NetBuild.BuildSeconds + rep.NetBuild.LoadSeconds, nil
}

// execPass is one pass of the grid through a fresh sweep.Executor: a
// set-up phase of one setup-only task per network, so the grid tasks
// that follow find their networks ready and time engine work alone, then
// the grid. Results, metric deltas, task times and reference-kernel
// times sit at their task ID.
type execPass struct {
	ex       *sweep.Executor
	results  []sweep.TaskResult
	deltas   []map[string]float64
	taskTime []time.Duration
	// refNs is, for a pass given reference kernels, the mean of the
	// kernel's ns per iteration measured on the task's worker just before
	// and just after the task.
	refNs []float64
	setup sweep.NetBuildStats // after the set-up phase
	wall  time.Duration       // set-up phase included
	// phases holds, for a traced pass, one entry per engine in grid
	// order: the route/flood cache counters its phase added.
	phases []enginePhase
}

type enginePhase struct {
	algo   string
	routes routing.CacheStats
}

// runExecPass drives the workload's grid through an Executor with
// c.workers slots in a closed loop. Untraced (tr == nil) it reads the
// clock around each task, probes the reference kernel of the task's n
// before and after it when ref is not nil, and runs the grid as one
// phase. Traced, every task and phase is a span, and each engine's tasks
// run as their own phase so the Executor's cache counters — readable only
// while no task runs — split exactly by engine.
func runExecPass(w *workload, c *config, store *netstore.Store, tr *tracer, ref map[int]*refKernel) *execPass {
	tasks := w.ispec.Expand()
	p := &execPass{
		ex:       sweep.NewExecutor(c.workers, c.workers, store),
		results:  make([]sweep.TaskResult, len(tasks)),
		deltas:   make([]map[string]float64, len(tasks)),
		taskTime: make([]time.Duration, len(tasks)),
		refNs:    make([]float64, len(tasks)),
	}
	root := tr.begin(0, "pass.traced", nil)
	start := time.Now()
	_, setup := w.setupSpecs()
	p.phase(c, tr, root, "phase.setup", setup.Expand(), false, nil)
	p.setup = p.ex.NetStats()
	if tr == nil {
		p.phase(c, tr, root, "phase.run", tasks, true, ref)
	} else {
		var prev routing.CacheStats
		for lo := 0; lo < len(tasks); {
			hi := lo
			for hi < len(tasks) && tasks[hi].Algorithm == tasks[lo].Algorithm {
				hi++
			}
			p.phase(c, tr, root, "phase."+tasks[lo].Algorithm, tasks[lo:hi], true, nil)
			cur := p.ex.RouteStats()
			p.phases = append(p.phases, enginePhase{algo: tasks[lo].Algorithm, routes: cacheDelta(cur, prev)})
			prev = cur
			lo = hi
		}
	}
	p.wall = time.Since(start)
	tr.end(root)
	return p
}

// phase runs tasks in a closed loop; keep records each task's outcome at
// its ID, and the reference kernel's speed around it when ref has a
// kernel for the task's n.
func (p *execPass) phase(c *config, tr *tracer, parent int, name string, tasks []sweep.Task, keep bool, ref map[int]*refKernel) {
	pid := tr.begin(parent, name, nil)
	closedLoop(c.workers, len(tasks), func(slot, i int) {
		t := tasks[i]
		var sid int
		if tr != nil { // spares the untraced path the attribute map
			sid = tr.begin(pid, "task", map[string]any{"task": t.ID, "algo": t.Algorithm, "n": t.N, "seed_index": t.SeedIndex, "slot": slot})
		}
		k := ref[t.N]
		var before float64
		if k != nil {
			before = k.probe(slot)
		}
		start := time.Now()
		r, d := p.ex.Execute(slot, t)
		took := time.Since(start)
		tr.end(sid)
		if k != nil {
			p.refNs[t.ID] = (before + k.probe(slot)) / 2
		}
		if keep {
			p.results[t.ID], p.deltas[t.ID], p.taskTime[t.ID] = r, d, took
		}
	})
	tr.end(pid)
}

// counters sums the pass's per-task metric deltas.
func (p *execPass) counters() map[string]float64 {
	sum := make(map[string]float64)
	for _, d := range p.deltas {
		for k, v := range d {
			sum[k] += v
		}
	}
	return sum
}

// Flatten keys of the per-engine counters the benchmark reads.
func engineKey(metric, algo string) string { return metric + `{engine="` + algo + `"}` }

func txKey(category, algo string) string {
	return obs.MetricTransmissions + `{category="` + category + `",engine="` + algo + `"}`
}

var txCategories = []string{"near", "far", "control", "flood"}

// timedRun is one untraced run, measuring for about `seconds`: grid
// passes while another still fits in the time left (at least one), with
// a set-up sample before each while the samples number fewer than nine
// and have taken no longer than the passes, so that they span the run;
// then more samples if there are fewer than three. Every pass runs on a
// fresh Executor and must produce the same sink.
func timedRun(w *workload, c *config, seconds int) (runResult, []string, error) {
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	st := &stores{c: c, mode: w.store}
	release, err := st.prepareWarm(w)
	if err != nil {
		return runResult{}, nil, err
	}
	defer release()
	ref := refKernels(w.ispec.Ns, c.workers, w.ispec.RadiusMultiplier)

	var (
		passes                []*execPass
		samples               []setupSample
		passTime, setupTime   time.Duration // the latest of each
		passSpent, setupSpent time.Duration
	)
	pass := func() error {
		t0 := time.Now()
		store, _, done, err := st.open()
		if err != nil {
			return err
		}
		p := runExecPass(w, c, store, nil, ref)
		p.ex = nil // frees the pass's networks: the checks read only its results
		passes = append(passes, p)
		done()
		passTime = time.Since(t0)
		passSpent += passTime
		return nil
	}
	setup := func() error {
		t0 := time.Now()
		_, dir, done, err := st.open()
		if err != nil {
			return err
		}
		s, err := st.setupChild(w, dir)
		done()
		if err != nil {
			return err
		}
		samples = append(samples, s)
		setupTime = time.Since(t0)
		setupSpent += setupTime
		return nil
	}
	for {
		sample := len(samples) < 9 && setupSpent <= passSpent
		next := passTime
		if sample {
			next += setupTime
		}
		if len(passes) > 0 && time.Since(start)+next > budget {
			break
		}
		if sample {
			if err := setup(); err != nil {
				return runResult{}, nil, err
			}
		}
		if err := pass(); err != nil {
			return runResult{}, nil, err
		}
	}
	for len(samples) < 3 {
		if err := setup(); err != nil {
			return runResult{}, nil, err
		}
	}

	var (
		out      runResult
		problems []string
		first    string
		cost     = make(map[sweep.CellKey][]float64) // kernel iterations per tick
		perTick  = make(map[sweep.CellKey][]float64) // ns per tick, for the log
		refNs    []float64
	)
	for i, p := range passes {
		digest, more := p.check(w)
		problems = append(problems, more...)
		if i == 0 {
			first = digest
		} else if digest != first {
			problems = append(problems, fmt.Sprintf("pass %d sink digest %s, pass 1 %s", i+1, digest, first))
		}
		for j, r := range p.results {
			out.Attempted++
			if r.Error != "" {
				out.Failed++
				continue
			}
			if ticks := p.deltas[j][engineKey(obs.MetricTicks, r.Algorithm)]; ticks > 0 {
				ns := float64(p.taskTime[j].Nanoseconds()) / ticks
				perTick[r.Cell()] = append(perTick[r.Cell()], ns)
				cost[r.Cell()] = append(cost[r.Cell()], ns/p.refNs[j])
				refNs = append(refNs, p.refNs[j])
			}
		}
	}
	var setupS, rss []float64
	for _, s := range samples {
		setupS = append(setupS, s.SetupS)
		rss = append(rss, s.PeakRSSMB)
	}
	fmt.Fprintf(c.log, "bench: %s: %d set-up samples, %d grid pass(es) in %.1fs; %.4g ns per tick, reference kernel %.4g ns per iteration\n",
		w.name, len(samples), len(passes), time.Since(start).Seconds(), cellGmean(perTick), median(refNs))
	out.Correct = len(problems) == 0
	out.fill(endToEnd, map[string]float64{
		"tick_cost":    cellGmean(cost),
		"setup_s":      median(setupS),
		"setup_rss_mb": median(rss),
	})
	return out, problems, nil
}

// cellGmean is the geometric mean over grid cells of each cell's median.
func cellGmean(cells map[sweep.CellKey][]float64) float64 {
	var meds []float64
	for _, xs := range cells {
		meds = append(meds, median(xs))
	}
	return gmean(meds)
}

// check verifies a pass's outputs and returns its sink digest: the
// seed-1 digest must match the golden file, and every task's result must
// match the obs counters its run moved — transmissions, runs and
// converged runs are reported twice by the program, once in the result
// and once through metrics.
func (p *execPass) check(w *workload) (string, []string) {
	digest, err := digestInternal(p.results)
	if err != nil {
		return "", []string{err.Error()}
	}
	var problems []string
	if w.golden != "" && digest != w.golden {
		problems = append(problems, fmt.Sprintf("sink digest %s, golden/%s.sha256 has %s", digest, w.name, w.golden))
	}
	for i, r := range p.results {
		if r.TaskID != i {
			problems = append(problems, fmt.Sprintf("task %d missing from the pass", i))
			continue
		}
		if r.Error != "" {
			continue
		}
		d := p.deltas[i]
		var tx float64
		for _, cat := range txCategories {
			tx += d[txKey(cat, r.Algorithm)]
		}
		conv := 0.0
		if r.Converged {
			conv = 1
		}
		if tx != float64(r.Transmissions) || d[engineKey(obs.MetricRuns, r.Algorithm)] != 1 ||
			d[engineKey(obs.MetricRunsConverged, r.Algorithm)] != conv {
			problems = append(problems, fmt.Sprintf("task %d: result (tx %d, converged %v) disagrees with its metrics (tx %v, runs %v, converged %v)",
				i, r.Transmissions, r.Converged, tx, d[engineKey(obs.MetricRuns, r.Algorithm)], d[engineKey(obs.MetricRunsConverged, r.Algorithm)]))
		}
	}
	return digest, problems
}

// digestPublic hashes results written through WriteSweepResults in the
// given (task-ID) order: the canonical sink.
func digestPublic(rs []geogossip.SweepResult) (string, error) {
	h := sha256.New()
	if err := geogossip.WriteSweepResults(h, rs); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestInternal hashes Executor results through the same public sink,
// by way of the JSONL form ReadSweepResults parses, so both paths hash
// identical bytes.
func digestInternal(rs []sweep.TaskResult) (string, error) {
	var buf bytes.Buffer
	sink := sweep.NewJSONL(&buf)
	for _, r := range rs {
		if err := sink.Write(r); err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
	}
	pub, err := geogossip.ReadSweepResults(&buf)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestPublic(pub)
}

// referenceSweep is the traced run's untraced reference: the whole grid
// through geogossip.Sweep, as a user runs it.
type referenceSweep struct {
	rep     *geogossip.SweepReport
	wall    time.Duration
	digest  string
	sinkMS  float64
	allocMB float64
	gcs     float64
}

func runReference(w *workload, c *config, st *stores) (*referenceSweep, error) {
	_, dir, done, err := st.open()
	if err != nil {
		return nil, err
	}
	defer done()
	opts := []geogossip.SweepOption{geogossip.WithSweepWorkers(c.workers), geogossip.WithSweepBuildWorkers(c.workers)}
	if dir != "" {
		opts = append(opts, geogossip.WithSweepNetworkDir(dir))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rep, err := geogossip.Sweep(context.Background(), w.spec, opts...)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	ref := &referenceSweep{
		rep:     rep,
		wall:    wall,
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcs:     float64(after.NumGC - before.NumGC),
	}
	start = time.Now()
	if ref.digest, err = digestPublic(rep.Results); err != nil {
		return nil, err
	}
	ref.sinkMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return ref, nil
}

// metricsAgree reports the first key on which two metric snapshots
// differ, treating a missing key as 0 (an Executor slot registers a scope
// for every engine it ever ran, the set-up phase's boyd included).
func metricsAgree(a, b map[string]float64) (string, bool) {
	for _, m := range []map[string]float64{a, b} {
		for k := range m {
			if a[k] != b[k] {
				return fmt.Sprintf("%s: %v != %v", k, a[k], b[k]), false
			}
		}
	}
	return "", true
}
