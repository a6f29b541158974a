package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"geogossip"
)

// Names and units as the result format allows them.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricCatalogue(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: bad syntax", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better is %q", d.Name, d.Better)
		}
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or malformed: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the catalogue the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(catalogue) {
		t.Fatalf("%d workloads, catalogue has %d", len(b.Workloads), len(catalogue))
	}
	for i, w := range b.Workloads {
		if w.Name != catalogue[i].name || w.Why != catalogue[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, catalogue %q: %q", i, w, catalogue[i].name, catalogue[i].why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\ncatalogue  %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalogue")
	}
}

// TestQuantile checks the helper against Python's
// statistics.quantiles(data, n=4), the spread the acceptance rule uses.
func TestQuantile(t *testing.T) {
	one2ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{one2ten, 0.25, 2.75},
		{one2ten, 0.5, 5.5},
		{one2ten, 0.75, 8.25},
		{[]float64{1, 2}, 0.25, 0.75},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 1, 3}, 0.5, 3},
		{[]float64{7}, 0.9, 7},
	} {
		if got := quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := spread(one2ten); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
	for n, want := range map[int]int{1: 50, 20: 50, 21: 52, 32: 68, 160: 93, 1000: 99} {
		if got := tailPct(n); got != want {
			t.Errorf("tailPct(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.05}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name         string
		d            metricDef
		base, change []float64
		want         string
	}{
		{"identical", lower, base, base, verdictSame},
		{"within bound", lower, base, scale(base, 1.05), verdictSame},
		{"beyond bound", lower, base, scale(base, 1.3), verdictRegression},
		{"faster everywhere", lower, base, scale(base, 0.8), verdictGain},
		{"higher is better", higher, base, scale(base, 1.2), verdictGain},
		{"higher, dropped", higher, base, scale(base, 0.9), verdictRegression},
		{"deterministic count", lower, []float64{7, 7, 7}, []float64{7, 7, 7}, verdictSame},
		{"noisy", lower, []float64{100, 150, 60, 120, 90}, []float64{95, 140, 70, 110, 100}, verdictUnresolved},
		{"noisy but every run better", lower, []float64{100, 150, 120, 160, 130}, []float64{40, 50, 45, 55, 42}, verdictGain},
		// Eight of ten pairs won: below the nine-tenths rule.
		{"most pairs only", lower, base, []float64{90, 91, 89, 90, 92, 88, 90, 91, 101, 101}, verdictSame},
	} {
		if got := verdict(c.d, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestWorkloadsDecode decodes every workload the way `cmd/sweep -config`
// does (unknown fields rejected) and checks the grid sizes the README
// quotes.
func TestWorkloadsDecode(t *testing.T) {
	tasks := map[string]int{"grid-ref": 160, "grid-faults": 80, "scale-cold": 4, "scale-warm": 4}
	for _, c := range catalogue {
		w, err := loadWorkload(c.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.spec.TaskCount(); got != tasks[c.name] {
			t.Errorf("%s: %d tasks, want %d", c.name, got, tasks[c.name])
		}
		if w.golden == "" {
			t.Errorf("%s: no golden digest", c.name)
		}
		if _, err := w.medium(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	var spec geogossip.SweepSpec
	if err := decodeStrict([]byte(`{"Algorithms": ["boyd"], "Ns": [8], "Seed": 3}`), &spec); err == nil {
		t.Error("a misspelled field decoded")
	}
}

// TestRefKernel checks that every run builds the same reference kernel
// and that a probe measures something.
func TestRefKernel(t *testing.T) {
	a, b := refKernels([]int{512}, 2, 1.5), refKernels([]int{512, 1024}, 1, 1.5)
	if !slices.Equal(a[512].adj, b[512].adj) || !slices.Equal(a[512].pos, b[512].pos) {
		t.Error("the kernel's graph differs between builds")
	}
	if ns := a[512].probe(1); !(ns > 0) || math.IsInf(ns, 0) {
		t.Errorf("probe read %v ns per iteration", ns)
	}
}

// testWorkload wraps a small spec as a workload with no golden digest.
func testWorkload(t *testing.T, spec geogossip.SweepSpec, store storeMode) *workload {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{name: "smoke", store: store, spec: spec}
	if err := decodeStrict(raw, &w.ispec); err != nil {
		t.Fatal(err)
	}
	w.ispec = w.ispec.Normalized()
	return w
}

// TestSmoke drives both paths over a small grid: the untraced run and
// the traced run, whose untraced and traced sinks must hash the same.
func TestSmoke(t *testing.T) {
	c := &config{workers: 2, workdir: t.TempDir(), log: io.Discard}
	for _, w := range []*workload{
		testWorkload(t, geogossip.SweepSpec{
			Algorithms:       []string{"boyd", "geographic", "push-sum", "affine-hierarchical", "affine-async"},
			Ns:               []int{128},
			Seeds:            2,
			RadiusMultiplier: 2.0,
			TargetErr:        5e-2,
		}, storeNone),
		testWorkload(t, geogossip.SweepSpec{
			Algorithms:       []string{"boyd", "affine-hierarchical"},
			Ns:               []int{128},
			RadiusMultiplier: 2.0,
			TargetErr:        5e-2,
			FaultModels:      []string{"ge:0.025/0.1/0.01/0.5"},
			Transports:       []string{"delay:exp/0.5+arq:3/1/2"},
		}, storeCold),
	} {
		res, problems, err := timedRun(w, c, 0)
		if err != nil || len(problems) > 0 || !res.Correct || res.Attempted != w.spec.TaskCount() {
			t.Fatalf("untraced run: %v %q %+v", err, problems, res)
		}
		checkMetrics(t, res, endToEnd)
		tr := newTracer(w.name)
		res, problems, err = traceRun(w, c, tr)
		if err != nil || len(problems) > 0 || !res.Correct {
			t.Fatalf("traced run: %v %q", err, problems)
		}
		checkMetrics(t, res, perLayer)
		if res.Metrics["gossip.boyd.ticks"].Value <= 0 || res.Metrics["explain.setup_s"].Value <= 0 {
			t.Errorf("traced run measured nothing: %+v", res.Metrics)
		}
		if tr.total("task") <= 0 {
			t.Error("no task spans")
		}
	}
}

func checkMetrics(t *testing.T, res runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: %+v", d.Name, m)
		}
	}
}

// TestMain lets a run re-exec its own binary, as it does for set-up
// samples: under test that binary is this one, which then acts as the
// command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}
