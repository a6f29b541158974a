package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
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
// JSON encoding. Normalized defaults only zero values, so every
// non-finite value survives it and fails the path every caller takes
// too.
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
			raw := smallSpec()
			f.set(&raw, v)
			if err := raw.Normalized().Validate(); err == nil {
				t.Errorf("%s = %v validated after Normalized", f.name, v)
			}
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	four := []string{AlgoBoyd, AlgoGeographic, AlgoPushSum, AlgoAffine}
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
		// Normalized defaults only zero values: a negative one is an
		// error naming its field, not a request for the default.
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, Seeds: -2}, "Seeds"},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, TargetErr: -1}, "TargetErr"},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, RadiusMultiplier: -3}, "RadiusMultiplier"},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, LossRates: []float64{-0.1}}, "LossRates"},
		{Spec{Algorithms: []string{AlgoAsync}, Ns: []int{64}, AsyncThrottle: -1}, "AsyncThrottle"},
		{Spec{Algorithms: []string{AlgoAsync}, Ns: []int{64}, AsyncLeafTicks: -1}, "AsyncLeafTicks"},
		// Grids too large to expand: with 4 algorithms × 2 sizes, 2^62
		// seeds wrap an unchecked product to 0 tasks and 2^40 seeds count
		// 8.8·10^12 of them.
		{Spec{Algorithms: four, Ns: []int{64, 128}, Seeds: 1 << 62}, "tasks"},
		{Spec{Algorithms: four, Ns: []int{64, 128}, Seeds: 1 << 40}, "tasks"},
		{Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, Seeds: maxTasks + 1}, "tasks"},
	}
	for i, b := range bad {
		err := b.spec.Normalized().Validate()
		if err == nil {
			t.Errorf("spec %d validated: %+v", i, b.spec)
		} else if !strings.Contains(err.Error(), b.want) {
			t.Errorf("spec %d: error %q does not name %s", i, err, b.want)
		}
		if n := b.spec.TaskCount(); n != 0 {
			t.Errorf("spec %d: rejected spec counts %d tasks, want 0", i, n)
		}
	}
	if err := smallSpec().Normalized().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	if n := (Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, Seeds: maxTasks}).TaskCount(); n != maxTasks {
		t.Fatalf("a grid of maxTasks tasks counts %d", n)
	}
}

// FuzzSpecJSON decodes arbitrary bytes into a Spec, as a distributed
// worker decodes the spec it receives over TCP, and runs the checks
// every caller runs before Expand: Normalized, Validate and TaskCount
// must never panic, and a spec that validates counts at most maxTasks
// tasks.
func FuzzSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"Algorithms":["boyd","affine-hierarchical"],"Ns":[96,128],"Seeds":2,"LossRates":[0,0.1]}`,
		`{"Algorithms":["boyd","geographic","push-sum","affine-hierarchical"],"Ns":[64,128],"Seeds":4611686018427387904}`,
		`{"Algorithms":["affine-async"],"Ns":[64],"FaultModels":["bernoulli:0.1+churn:4000/1000"],"Transports":["delay:exp/0.5+arq:3/1/2"],"Recovery":[false,true]}`,
		`{"Algorithms":["boyd"],"Ns":[-1],"Seeds":-2,"Samplings":["psychic"]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		n := s.Normalized()
		err := n.Validate()
		count := s.TaskCount()
		if count < 0 || count > maxTasks {
			t.Fatalf("spec counts %d tasks", count)
		}
		if err != nil && count != 0 {
			t.Fatalf("rejected spec (%v) counts %d tasks", err, count)
		}
	})
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

// TestSinkAndProgressAreSerialized runs a grid on 8 workers with a sink
// and a progress callback that each fail on re-entry, into themselves or
// into each other, and share a counter without a lock, so that under
// -race an unserialized call also shows as a data race.
func TestSinkAndProgressAreSerialized(t *testing.T) {
	var inside atomic.Bool
	calls := 0
	enter := func(who string) {
		if !inside.CompareAndSwap(false, true) {
			t.Errorf("%s entered while another callback ran", who)
			return
		}
		calls++
		time.Sleep(100 * time.Microsecond) // widen the window for an overlap
		inside.Store(false)
	}
	res, err := Run(context.Background(), smallSpec(), Options{
		Workers:  8,
		Sink:     sinkFunc(func(TaskResult) error { enter("Sink.Write"); return nil }),
		Progress: func(int, int) { enter("Progress") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != smallSpec().TaskCount() || calls != 2*len(res) {
		t.Fatalf("%d results and %d callback calls, want %d and %d", len(res), calls, smallSpec().TaskCount(), 2*len(res))
	}
}

type sinkFunc func(TaskResult) error

func (f sinkFunc) Write(r TaskResult) error { return f(r) }

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
	boyd := Params{Algorithm: AlgoBoyd}
	want := []TaskResult{{TaskID: 4, Params: boyd}, {TaskID: 0, Params: boyd}, {TaskID: 9, Params: boyd}}
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
	// task that must not poison its cell. A fourth boyd size is mixed
	// (one of its two runs missed the target) and the affine line
	// diverged in every run; neither may enter a fit, whose cost would
	// then not be a cost to ε.
	var results []TaskResult
	add := func(algo string, n, seed int, converged bool, tx uint64) {
		results = append(results, TaskResult{
			TaskID:        len(results),
			Params:        Params{Algorithm: algo, N: n, SeedIndex: seed},
			Converged:     converged,
			FinalErr:      1e-3,
			Transmissions: tx,
		})
	}
	for _, n := range []int{100, 200, 400} {
		for seed := 0; seed < 2; seed++ {
			add(AlgoBoyd, n, seed, true, uint64(n)*uint64(n))
		}
	}
	add(AlgoBoyd, 800, 0, true, 800*800)
	add(AlgoBoyd, 800, 1, false, 5)
	for _, n := range []int{100, 200} {
		for seed := 0; seed < 2; seed++ {
			add(AlgoAffine, n, seed, false, uint64(n))
		}
	}
	results = append(results, TaskResult{
		TaskID: len(results), Params: Params{Algorithm: AlgoBoyd, N: 100, SeedIndex: 2},
		Error: "no connected instance",
	})
	sum := Aggregate(results)
	if len(sum.Cells) != 6 {
		t.Fatalf("got %d cells: %+v", len(sum.Cells), sum.Cells)
	}
	if sum.UnconvergedCells != 3 {
		t.Fatalf("%d cells left out of the fits, want 3 (boyd n=800, both affine cells)", sum.UnconvergedCells)
	}
	first := sum.Cells[2]
	if first.N != 100 || first.Count != 2 || first.ConvergedCount != 2 || first.Errors != 1 {
		t.Fatalf("first cell = %+v", first)
	}
	if first.Transmissions.Mean != 100*100 || first.Transmissions.Std != 0 {
		t.Fatalf("first cell transmissions = %+v", first.Transmissions)
	}
	if len(sum.Fits) != 1 {
		t.Fatalf("got %d fits, want boyd's alone: %+v", len(sum.Fits), sum.Fits)
	}
	fit := sum.Fits[0]
	if fit.Algorithm != AlgoBoyd || fit.Points != 3 || fit.Exponent < 1.999 || fit.Exponent > 2.001 {
		t.Fatalf("fit = %+v, want boyd's over its 3 converged sizes, exponent 2", fit)
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
	task := Task{BaseSeed: 1, Params: Params{
		Algorithm:        AlgoBoyd,
		N:                512,
		RadiusMultiplier: 0.2,
		TargetErr:        1e-2,
		MaxTicks:         1000,
		Field:            FieldSmooth,
	}}
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
		var stats RunStats
		results, err := Run(context.Background(), spec, Options{
			Workers:      1,
			BuildWorkers: buildWorkers,
			Stats:        &stats,
		})
		if err != nil {
			t.Fatalf("build-workers=%d: %v", buildWorkers, err)
		}
		return results, stats.Net
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

// TestRunRemovesScrapeCollector: sweeps that share one registry leave
// no scrape collector of theirs behind (it holds the run's executor and
// its networks), and the sweep gauges keep the last run's values. A
// collector left behind would overwrite the sentinel on a later scrape,
// and would run beside the test's own collector on every one.
func TestRunRemovesScrapeCollector(t *testing.T) {
	reg := obs.NewRegistry()
	scrapes := 0
	reg.OnScrape(func() { scrapes++ })
	var stats RunStats
	for _, seeds := range []int{1, 2, 1} {
		spec := smallSpec()
		spec.Seeds = seeds
		if _, err := Run(context.Background(), spec, Options{Workers: 2, Obs: reg, Stats: &stats}); err != nil {
			t.Fatal(err)
		}
	}
	vals := reg.Values()
	if scrapes != 1 {
		t.Fatalf("one scrape ran the test's collector %d times", scrapes)
	}
	hits := obs.MetricRouteCacheLookups + `{kind="route",result="hit"}`
	for key, want := range map[string]uint64{
		obs.MetricChannelPoolBuilds: stats.ChannelBuilds,
		hits:                        stats.Route.RouteHits,
	} {
		if got := vals[key]; got != float64(want) {
			t.Errorf("%s reads %v after the sweeps, want the last run's %d", key, got, want)
		}
	}
	if stats.Route.RouteHits == 0 {
		t.Fatal("the last run had no route cache hits; the gauge check shows nothing")
	}
	reg.Gauge(obs.MetricChannelPoolBuilds, "").Set(-1)
	if got := reg.Values()[obs.MetricChannelPoolBuilds]; got != -1 {
		t.Fatalf("a finished sweep's collector is still registered: it reset the gauge to %v", got)
	}
}
