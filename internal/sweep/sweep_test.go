package sweep

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"geogossip/internal/obs"
)

// smallSpec is a grid cheap enough for unit tests but wide enough to
// exercise every axis: 2 algorithms × 2 sizes × 2 seeds × 2 loss rates.
func smallSpec() Spec {
	return Spec{
		Algorithms:       []string{AlgoBoyd, AlgoAffine},
		Ns:               []int{96, 128},
		Seeds:            2,
		LossRates:        []float64{0, 0.1},
		TargetErr:        5e-2,
		RadiusMultiplier: 2.2,
	}
}

func TestExpandAssignsSequentialIDs(t *testing.T) {
	spec := smallSpec()
	tasks := spec.Expand()
	want := spec.TaskCount()
	if len(tasks) != want {
		t.Fatalf("expanded %d tasks, TaskCount says %d", len(tasks), want)
	}
	if want != 2*2*2*2 {
		t.Fatalf("grid size %d, want 16", want)
	}
	for i, task := range tasks {
		if task.ID != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		if task.TargetErr != 5e-2 || task.Field != FieldSmooth {
			t.Fatalf("task %d missing spec defaults: %+v", i, task)
		}
	}
	// Expansion must be reproducible.
	if !reflect.DeepEqual(tasks, spec.Expand()) {
		t.Fatal("Expand is not deterministic")
	}
}

// TestValidateRejectsNonFinite covers the float fields cmd/sweep parses
// straight from its flags: NaN or ±Inf in any of them fails validation
// with the field named, instead of running and then failing the sink's
// JSON encoding. NaN and +Inf survive Normalized, so they fail the
// path every caller takes too; Normalized maps a non-positive radius
// multiplier or target, -Inf included, to its default.
func TestValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Spec, float64)
	}{
		{"RadiusMultiplier", func(s *Spec, v float64) { s.RadiusMultiplier = v }},
		{"LossRates", func(s *Spec, v float64) { s.LossRates = []float64{0, v} }},
		{"Betas", func(s *Spec, v float64) { s.Betas = []float64{0.5, v} }},
		{"TargetErr", func(s *Spec, v float64) { s.TargetErr = v }},
		{"AsyncThrottle", func(s *Spec, v float64) { s.AsyncThrottle = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := smallSpec().Normalized()
			f.set(&s, v)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: Validate() = %v, want an error naming the field", f.name, v, err)
			}
			if !math.IsInf(v, -1) {
				raw := smallSpec()
				f.set(&raw, v)
				if err := raw.Normalized().Validate(); err == nil {
					t.Errorf("%s = %v validated after Normalized", f.name, v)
				}
			}
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []struct {
		spec Spec
		want string // a substring of the error; empty accepts any error
	}{
		{Spec{}, ""},
		{Spec{Algorithms: []string{"boid"}, Ns: []int{64}}, ""},
		{Spec{Algorithms: []string{AlgoBoyd}}, ""},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{-1}}, ""},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, LossRates: []float64{1.5}}, ""},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, Samplings: []string{"psychic"}}, ""},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, Hierarchies: []string{"sideways"}}, ""},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, Field: "spiky"}, ""},
		{Spec{Algorithms: []string{AlgoAffine}, Ns: []int{64}, Betas: []float64{0, -1}}, "Betas"},
	}
	for i, b := range bad {
		err := b.spec.Normalized().Validate()
		if err == nil {
			t.Errorf("spec %d validated: %+v", i, b.spec)
		} else if !strings.Contains(err.Error(), b.want) {
			t.Errorf("spec %d: error %q does not name %s", i, err, b.want)
		}
	}
	if err := smallSpec().Normalized().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestSeedsIgnoreAlgorithmButNotCell(t *testing.T) {
	tasks := smallSpec().Expand()
	byCoord := func(algo string, n, seed int) Task {
		for _, task := range tasks {
			if task.Algorithm == algo && task.N == n && task.SeedIndex == seed && task.LossRate == 0 {
				return task
			}
		}
		t.Fatalf("no task %s/%d/%d", algo, n, seed)
		return Task{}
	}
	a := byCoord(AlgoBoyd, 96, 0)
	b := byCoord(AlgoAffine, 96, 0)
	if a.netSeed(0) != b.netSeed(0) || a.fieldSeed() != b.fieldSeed() {
		t.Fatal("algorithms of one cell must share network and field seeds")
	}
	if a.runSeed() == b.runSeed() {
		t.Fatal("different algorithms share a run seed")
	}
	c := byCoord(AlgoBoyd, 96, 1)
	if a.netSeed(0) == c.netSeed(0) {
		t.Fatal("different seed indices share a network seed")
	}
	d := byCoord(AlgoBoyd, 128, 0)
	if a.netSeed(0) == d.netSeed(0) {
		t.Fatal("different sizes share a network seed")
	}
}

// The headline determinism guarantee: identical per-task results and
// identical (order-normalized) JSONL bytes at 1 worker and 8 workers.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := smallSpec()
	run := func(workers int) ([]TaskResult, []byte) {
		var buf bytes.Buffer
		res, err := Run(context.Background(), spec, Options{
			Workers: workers,
			Sink:    NewJSONL(&buf),
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, buf.Bytes()
	}
	res1, jsonl1 := run(1)
	res8, jsonl8 := run(8)
	if len(res1) != spec.TaskCount() {
		t.Fatalf("got %d results, want %d", len(res1), spec.TaskCount())
	}
	if !reflect.DeepEqual(res1, res8) {
		for i := range res1 {
			if !reflect.DeepEqual(res1[i], res8[i]) {
				t.Fatalf("task %d differs:\n  1 worker: %+v\n  8 workers: %+v", i, res1[i], res8[i])
			}
		}
		t.Fatal("results differ")
	}
	if !bytes.Equal(sortLines(jsonl1), sortLines(jsonl8)) {
		t.Fatal("JSONL output not byte-identical after sorting by line")
	}
	for _, r := range res1 {
		if r.Error != "" {
			t.Fatalf("task %d errored: %s", r.TaskID, r.Error)
		}
	}
}

// sortLines order-normalizes JSONL output: lines are unique (each carries
// its task ID), so sorted-equal means identical result sets.
func sortLines(b []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// TestRunSkipsCompletedTasks resumes a run from three of its results.
// Each carries a marker transmission count that the grid check does
// not read, so a resumed task that ran again would lose its marker.
func TestRunSkipsCompletedTasks(t *testing.T) {
	spec := smallSpec()
	full, err := Run(context.Background(), spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var prior []TaskResult
	resumed := map[int]bool{}
	for _, id := range []int{0, 3, 7} {
		r := full[id]
		r.Transmissions = 1<<40 + uint64(id)
		prior = append(prior, r)
		resumed[id] = true
	}
	var col Collector
	res, err := Run(context.Background(), spec, Options{Workers: 4, Sink: &col, Resume: prior})
	if err != nil {
		t.Fatal(err)
	}
	sent := col.Results()
	if want := len(full) - len(prior); len(sent) != want {
		t.Fatalf("sank %d tasks, want %d", len(sent), want)
	}
	for _, r := range sent {
		if resumed[r.TaskID] {
			t.Fatalf("resumed task %d was sent to the sink again", r.TaskID)
		}
	}
	if len(res) != len(full) {
		t.Fatalf("got %d results, want %d", len(res), len(full))
	}
	for _, r := range prior {
		if !reflect.DeepEqual(res[r.TaskID], r) {
			t.Fatalf("resumed task %d was executed again: %+v", r.TaskID, res[r.TaskID])
		}
	}
}

func TestRunStopsOnCancel(t *testing.T) {
	spec := smallSpec()
	spec.Ns = []int{256, 384}
	spec.Seeds = 4
	ctx, cancel := context.WithCancel(context.Background())
	var cancelOnce bool
	start := time.Now()
	res, err := Run(ctx, spec, Options{
		Workers: 2,
		Progress: func(done, total int) {
			if !cancelOnce {
				cancelOnce = true
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) >= spec.TaskCount() {
		t.Fatalf("cancelled run completed all %d tasks", len(res))
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled run took %v to stop", elapsed)
	}
}

func TestRunReportsSinkError(t *testing.T) {
	spec := smallSpec()
	_, err := Run(context.Background(), spec, Options{Workers: 2, Sink: failSink{}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want sink failure", err)
	}
}

type failSink struct{}

func (failSink) Write(TaskResult) error { return errDiskFull }

var errDiskFull = &sinkErr{}

type sinkErr struct{}

func (*sinkErr) Error() string { return "disk full" }

func TestReadResultsForgivesOnlyATruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	want := []TaskResult{{TaskID: 4, Algorithm: AlgoBoyd}, {TaskID: 0, Algorithm: AlgoBoyd}, {TaskID: 9, Algorithm: AlgoBoyd}}
	for _, r := range want {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a killed run: a truncated trailing line.
	full := buf.String() + `{"task_id": 12, "algo`
	got, err := ReadResults(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	// Malformed content before the end is an error, not silent data loss.
	corrupt := `{"task_id": 1}` + "\nnot json at all\n" + `{"task_id": 2}` + "\n"
	if _, err := ReadResults(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file corruption not reported")
	}
}

func TestCollectorAndResumeEquivalence(t *testing.T) {
	spec := smallSpec()
	var col Collector
	full, err := Run(context.Background(), spec, Options{Workers: 4, Sink: &col})
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Results(); len(got) != len(full) {
		t.Fatalf("collector saw %d results, run returned %d", len(got), len(full))
	}
	// A run resumed from the first half's sink lines must execute only
	// the second half, reproduce it bit-for-bit, and merge to the full
	// run.
	half := len(full) / 2
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, r := range full[:half] {
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	prior, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rest Collector
	merged, err := Run(context.Background(), spec, Options{Workers: 4, Sink: &rest, Resume: prior})
	if err != nil {
		t.Fatal(err)
	}
	sent := rest.Results()
	sort.Slice(sent, func(i, j int) bool { return sent[i].TaskID < sent[j].TaskID })
	if !reflect.DeepEqual(sent, full[half:]) {
		t.Fatal("resumed run does not execute exactly the remaining tasks")
	}
	if !reflect.DeepEqual(merged, full) {
		t.Fatal("resumed run does not merge to the full run")
	}
}

func TestMapPlacesResultsByIndex(t *testing.T) {
	got, err := Map(context.Background(), 100, 8, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapFailsFastOnError(t *testing.T) {
	// Single worker: scheduling is in index order, so the failure at 7
	// stops everything after it and is the error returned.
	ran := 0
	_, err := Map(context.Background(), 50, 1, func(i int) (int, error) {
		ran++
		if i == 41 || i == 7 {
			return 0, &indexErr{i}
		}
		return i, nil
	})
	ie, ok := err.(*indexErr)
	if !ok || ie.i != 7 {
		t.Fatalf("err = %v, want index 7", err)
	}
	if ran >= 50 {
		t.Fatal("error did not stop scheduling")
	}
	// Parallel: some error must surface, whichever worker hit one first.
	if _, err := Map(context.Background(), 50, 8, func(i int) (int, error) {
		if i == 41 || i == 7 {
			return 0, &indexErr{i}
		}
		return i, nil
	}); err == nil {
		t.Fatal("parallel Map swallowed the error")
	}
}

type indexErr struct{ i int }

func (e *indexErr) Error() string { return "boom" }

func TestMapHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, 1000, 1, func(i int) (int, error) {
		ran++
		if i == 3 {
			cancel()
		}
		return i, nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if ran >= 1000 {
		t.Fatal("cancellation did not stop scheduling")
	}
}

func TestAggregateCellsAndFits(t *testing.T) {
	// Synthetic results: tx = n² exactly, two seeds per cell, one errored
	// task that must not poison its cell.
	var results []TaskResult
	for _, n := range []int{100, 200, 400} {
		for seed := 0; seed < 2; seed++ {
			results = append(results, TaskResult{
				TaskID:        len(results),
				Algorithm:     AlgoBoyd,
				N:             n,
				SeedIndex:     seed,
				Converged:     true,
				FinalErr:      1e-3,
				Transmissions: uint64(n) * uint64(n),
			})
		}
	}
	results = append(results, TaskResult{
		TaskID: len(results), Algorithm: AlgoBoyd, N: 100, SeedIndex: 2,
		Error: "no connected instance",
	})
	sum := Aggregate(results)
	if len(sum.Cells) != 3 {
		t.Fatalf("got %d cells: %+v", len(sum.Cells), sum.Cells)
	}
	first := sum.Cells[0]
	if first.N != 100 || first.Count != 2 || first.ConvergedCount != 2 || first.Errors != 1 {
		t.Fatalf("first cell = %+v", first)
	}
	if first.Transmissions.Mean != 100*100 || first.Transmissions.Std != 0 {
		t.Fatalf("first cell transmissions = %+v", first.Transmissions)
	}
	if len(sum.Fits) != 1 {
		t.Fatalf("got %d fits", len(sum.Fits))
	}
	fit := sum.Fits[0]
	if fit.Points != 3 || fit.Exponent < 1.999 || fit.Exponent > 2.001 {
		t.Fatalf("fit = %+v, want exponent 2", fit)
	}
	// Aggregation must not depend on input order.
	shuffled := append([]TaskResult(nil), results...)
	for i := range shuffled {
		j := (i * 7) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if !reflect.DeepEqual(sum, Aggregate(shuffled)) {
		t.Fatal("aggregation depends on input order")
	}
}

func TestExecuteReportsUnusableCell(t *testing.T) {
	// Sub-threshold radius: no connected instance exists, the task must
	// fail gracefully rather than hang or panic.
	task := Task{
		Algorithm:        AlgoBoyd,
		N:                512,
		RadiusMultiplier: 0.2,
		TargetErr:        1e-2,
		MaxTicks:         1000,
		Field:            FieldSmooth,
		BaseSeed:         1,
	}
	res := Execute(task, newNetCache())
	if res.Error == "" {
		t.Fatal("unusable cell produced no error")
	}
	if res.Transmissions != 0 || res.Converged {
		t.Fatalf("errored task carries results: %+v", res)
	}
}

// TestNonFiniteRunFailsAlone: an affine-async run at an absurd beta
// overflows its values, ending at +Inf (beta 1e6) or NaN (beta 1e100).
// Each such run is one failed task whose error names the engine and the
// value. The sweep still finishes, the JSONL sink encodes every line,
// and the boyd tasks of the same grid keep their results. The failed
// runs stay out of the metrics registry too: it counts no async run,
// and its exposition holds no NaN or infinite value.
func TestNonFiniteRunFailsAlone(t *testing.T) {
	spec := Spec{
		Algorithms: []string{AlgoBoyd, AlgoAsync},
		Ns:         []int{96},
		Seeds:      1,
		Betas:      []float64{1e6, 1e100},
		MaxTicks:   2_000_000,
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	res, err := Run(context.Background(), spec, Options{Workers: 2, Sink: NewJSONL(&buf), Obs: reg})
	if err != nil {
		t.Fatalf("sweep aborted: %v", err)
	}
	flat := reg.Flatten()
	for algo, want := range map[string]float64{AlgoAsync: 0, AlgoBoyd: 2} {
		if got := flat[obs.MetricRuns+`{engine="`+algo+`"}`]; got != want {
			t.Errorf("%s runs counted %v, want %v", algo, got, want)
		}
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(expo.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] == "#" {
			continue
		}
		if v := fields[len(fields)-1]; v == "NaN" || strings.HasSuffix(v, "Inf") {
			t.Errorf("exposition holds a non-finite value: %s", line)
		}
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(res) || len(res) != 4 {
		t.Fatalf("sink holds %d lines for %d results, want 4", lines, len(res))
	}
	want := map[float64]string{1e6: "+Inf", 1e100: "NaN"}
	for _, r := range res {
		if r.Algorithm == AlgoBoyd {
			if r.Error != "" || !r.Converged {
				t.Fatalf("boyd task %d: error %q, converged %v", r.TaskID, r.Error, r.Converged)
			}
			continue
		}
		if !strings.Contains(r.Error, AlgoAsync) || !strings.Contains(r.Error, want[r.Beta]) {
			t.Fatalf("beta %g: error %q, want one naming %s and %s", r.Beta, r.Error, AlgoAsync, want[r.Beta])
		}
		if r.Converged || r.FinalErr != 0 || r.Transmissions != 0 {
			t.Fatalf("beta %g: failed task carries results: %+v", r.Beta, r)
		}
	}
	sum := Aggregate(res)
	for _, c := range sum.Cells {
		if c.Algorithm == AlgoAsync && (c.Errors != 1 || c.ConvergedCount != 0) {
			t.Fatalf("async cell beta %g: %d failed, %d converged; want 1 and 0", c.Beta, c.Errors, c.ConvergedCount)
		}
	}
}

// Sharded network construction is invisible to results: the same grid
// run with any BuildWorkers value yields a bit-identical result set and
// identical network footprints (only construction wall-clock may vary).
func TestRunBuildWorkersInvariance(t *testing.T) {
	spec := smallSpec()
	run := func(buildWorkers int) ([]TaskResult, NetBuildStats) {
		var stats NetBuildStats
		results, err := Run(context.Background(), spec, Options{
			Workers:      1,
			BuildWorkers: buildWorkers,
			NetStats:     &stats,
		})
		if err != nil {
			t.Fatalf("build-workers=%d: %v", buildWorkers, err)
		}
		return results, stats
	}
	refResults, refStats := run(1)
	if refStats.Networks == 0 || refStats.Nodes == 0 || refStats.GraphBytes == 0 || refStats.HierBytes == 0 {
		t.Fatalf("empty network build stats: %+v", refStats)
	}
	for _, bw := range []int{2, 0} {
		results, stats := run(bw)
		if !reflect.DeepEqual(refResults, results) {
			t.Fatalf("build-workers=%d: results differ from serial construction", bw)
		}
		if stats.Networks != refStats.Networks || stats.Nodes != refStats.Nodes ||
			stats.GraphBytes != refStats.GraphBytes || stats.HierBytes != refStats.HierBytes {
			t.Fatalf("build-workers=%d: network stats differ: %+v vs %+v", bw, stats, refStats)
		}
	}
}

// The async budget overrides must reach the engine (changing the run),
// be recorded in the self-describing result line, and participate in
// the resume "different spec" check like every other run-level knob.
func TestAsyncBudgetOverrides(t *testing.T) {
	base := Spec{
		Algorithms:       []string{AlgoAsync},
		Ns:               []int{128},
		TargetErr:        5e-2,
		RadiusMultiplier: 2.2,
	}
	run := func(spec Spec) []TaskResult {
		results, err := Run(context.Background(), spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	ref := run(base)
	tuned := base
	tuned.AsyncThrottle = 16
	tuned.AsyncLeafTicks = 128
	got := run(tuned)
	if len(ref) != 1 || len(got) != 1 {
		t.Fatalf("got %d/%d results", len(ref), len(got))
	}
	if got[0].AsyncThrottle != 16 || got[0].AsyncLeafTicks != 128 {
		t.Fatalf("overrides not recorded: %+v", got[0])
	}
	if ref[0].AsyncThrottle != 0 || ref[0].AsyncLeafTicks != 0 {
		t.Fatalf("default run recorded overrides: %+v", ref[0])
	}
	if ref[0].Transmissions == got[0].Transmissions {
		t.Fatal("budget overrides did not change the async run")
	}
	if ref[0].RunSeed != got[0].RunSeed {
		t.Fatal("budget overrides changed the derived run seed")
	}
	// Resuming a default-budget result under overridden budgets is a
	// different spec, not a silent mix.
	if _, err := Run(context.Background(), tuned, Options{Resume: ref}); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("override mismatch accepted on resume (err=%v)", err)
	}
	if _, err := Run(context.Background(), tuned, Options{Resume: got}); err != nil {
		t.Fatalf("matching override rejected on resume: %v", err)
	}
}
