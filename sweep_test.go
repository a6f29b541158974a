package geogossip

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"geogossip/internal/metrics"
	"geogossip/internal/obs"
)

// The acceptance grid: 3 algorithms × 3 sizes × 2 seeds through the
// public API, with the parallel run's JSONL byte-identical (after
// sorting by task ID) to the single-worker run.
func TestSweepAcceptanceGridDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full 3x3x2 comparison grid")
	}
	spec := SweepSpec{
		Algorithms: []string{"boyd", "geographic", "affine-hierarchical"},
		Ns:         []int{256, 512, 1024},
		Seeds:      2,
		TargetErr:  5e-2,
	}
	run := func(workers int) (*SweepReport, []byte) {
		var buf bytes.Buffer
		rep, err := Sweep(context.Background(), spec,
			WithSweepWorkers(workers), WithSweepJSONL(&buf))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep, buf.Bytes()
	}
	rep1, jsonl1 := run(1)
	repN, jsonlN := run(runtime.NumCPU())
	if len(rep1.Results) != spec.TaskCount() || spec.TaskCount() != 18 {
		t.Fatalf("got %d results, want 18", len(rep1.Results))
	}
	// Construction wall-clock is the one non-deterministic report field;
	// the structural build stats must still agree exactly.
	if rep1.NetBuild.Networks != repN.NetBuild.Networks || rep1.NetBuild.Nodes != repN.NetBuild.Nodes ||
		rep1.NetBuild.GraphBytes != repN.NetBuild.GraphBytes || rep1.NetBuild.HierarchyBytes != repN.NetBuild.HierarchyBytes {
		t.Fatalf("network build stats differ between worker counts:\n%+v\nvs\n%+v", rep1.NetBuild, repN.NetBuild)
	}
	rep1.NetBuild.BuildSeconds, repN.NetBuild.BuildSeconds = 0, 0
	if !reflect.DeepEqual(rep1, repN) {
		t.Fatal("reports differ between 1 worker and NumCPU workers")
	}
	if !bytes.Equal(sortJSONLLines(jsonl1), sortJSONLLines(jsonlN)) {
		t.Fatal("JSONL not byte-identical after sorting by task ID")
	}
	for _, r := range rep1.Results {
		if r.Err != "" {
			t.Fatalf("task %d failed: %s", r.TaskID, r.Err)
		}
		if !r.Converged {
			t.Errorf("task %d (%s n=%d seed=%d) did not converge (err %v)",
				r.TaskID, r.Algorithm, r.N, r.SeedIndex, r.FinalErr)
		}
	}
	// The headline ordering at these sizes: geographic beats boyd on the
	// fitted exponent.
	exp := map[string]float64{}
	for _, f := range rep1.Fits {
		exp[f.Algorithm] = f.Exponent
	}
	if len(exp) != 3 {
		t.Fatalf("got fits for %d algorithms: %+v", len(exp), rep1.Fits)
	}
	if exp["geographic"] >= exp["boyd"] {
		t.Errorf("geographic exponent %v not below boyd %v", exp["geographic"], exp["boyd"])
	}
}

// Lines are unique (each carries its task ID), so sorting them
// normalizes completion order away.
func sortJSONLLines(b []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

func TestSweepResumeMergesPriorResults(t *testing.T) {
	spec := SweepSpec{
		Algorithms:       []string{"boyd"},
		Ns:               []int{96, 128},
		Seeds:            2,
		TargetErr:        5e-2,
		RadiusMultiplier: 2.2,
	}
	var buf bytes.Buffer
	full, err := Sweep(context.Background(), spec, WithSweepJSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// Feed half the output back as "already done": the resumed report
	// must still cover the whole grid, bit-identical to the full run.
	lines := strings.SplitAfter(buf.String(), "\n")
	prior, err := ReadSweepResults(strings.NewReader(strings.Join(lines[:len(lines)/2], "")))
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) == 0 {
		t.Fatal("no completed tasks parsed")
	}
	var resumedOut bytes.Buffer
	resumed, err := Sweep(context.Background(), spec,
		WithSweepResume(prior), WithSweepJSONL(&resumedOut))
	if err != nil {
		t.Fatal(err)
	}
	// Metrics counts events of the runs this Sweep call actually
	// executed, so a resumed sweep reports fewer runs than the full one —
	// compare it separately, then the rest of the report bit-for-bit.
	if got := resumed.Metrics[`geogossip_runs_total{engine="boyd"}`]; got != float64(len(full.Results)-len(prior)) {
		t.Fatalf("resumed sweep counted %v runs, want %d (executed tasks only)", got, len(full.Results)-len(prior))
	}
	// NetBuild, like Metrics, covers only the work this call performed: a
	// resumed sweep skips networks whose tasks all completed earlier.
	resumed.Metrics, full.Metrics = nil, nil
	resumed.NetBuild, full.NetBuild = SweepNetBuildStats{}, SweepNetBuildStats{}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatal("resumed report differs from the uninterrupted run")
	}
	// Only the newly executed tasks stream to the sink (the prior ones
	// are already in the caller's file).
	newLines := strings.Count(resumedOut.String(), "\n")
	if newLines != len(full.Results)-len(prior) {
		t.Fatalf("resumed run streamed %d results, want %d",
			newLines, len(full.Results)-len(prior))
	}
}

func TestSweepResumeRejectsForeignGrid(t *testing.T) {
	spec := SweepSpec{
		Algorithms:       []string{"boyd"},
		Ns:               []int{96, 128},
		Seeds:            2,
		TargetErr:        5e-2,
		RadiusMultiplier: 2.2,
	}
	// A result whose ID maps to different coordinates under this grid.
	prior := []SweepResult{{TaskID: 0, SweepCoords: SweepCoords{Algorithm: "geographic", N: 4096}}}
	if _, err := Sweep(context.Background(), spec, WithSweepResume(prior)); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("foreign-grid resume accepted (err=%v)", err)
	}
	// An ID outside the grid entirely.
	prior = []SweepResult{{TaskID: 99, SweepCoords: SweepCoords{Algorithm: "boyd", N: 96}}}
	if _, err := Sweep(context.Background(), spec, WithSweepResume(prior)); err == nil {
		t.Fatal("out-of-range resume accepted")
	}
	// Same coordinates but different run-level parameters: output from a
	// genuine run of this grid must be rejected once the target accuracy
	// (or the base seed) changes, not silently mixed in.
	var buf bytes.Buffer
	if _, err := Sweep(context.Background(), spec, WithSweepJSONL(&buf)); err != nil {
		t.Fatal(err)
	}
	genuine, err := ReadSweepResults(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tighter := spec
	tighter.TargetErr = 1e-3
	if _, err := Sweep(context.Background(), tighter, WithSweepResume(genuine[:1])); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("changed -target accepted stale results (err=%v)", err)
	}
	reseeded := spec
	reseeded.BaseSeed = 777
	if _, err := Sweep(context.Background(), reseeded, WithSweepResume(genuine[:1])); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("changed base seed accepted stale results (err=%v)", err)
	}
}

func TestSweepValidatesSpec(t *testing.T) {
	if _, err := Sweep(context.Background(), SweepSpec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Sweep(context.Background(), SweepSpec{
		Algorithms: []string{"telepathy"}, Ns: []int{64},
	}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TaskCount counts the runs of a valid grid and reads 0 for one Sweep
// rejects, rather than the product of its axes.
func TestSweepTaskCount(t *testing.T) {
	spec := SweepSpec{Algorithms: []string{"boyd", "push-sum"}, Ns: []int{64, 96}, Seeds: 3}
	if got := spec.TaskCount(); got != 12 {
		t.Errorf("TaskCount = %d, want 12", got)
	}
	for _, bad := range []SweepSpec{
		{Algorithms: []string{"boyd"}, Ns: []int{64}, Seeds: -2},
		{Algorithms: []string{"telepathy"}, Ns: []int{64}},
		{Algorithms: []string{"boyd"}},
	} {
		if got := bad.TaskCount(); got != 0 {
			t.Errorf("TaskCount of invalid %+v = %d, want 0", bad, got)
		}
	}
}

// Result.Breakdown must be the caller's to mutate: it may not alias the
// engine's internal per-category counters.
func TestResultBreakdownIsACopy(t *testing.T) {
	internal := &metrics.Result{
		Algorithm:               "boyd",
		Converged:               true,
		Transmissions:           7,
		TransmissionsByCategory: map[string]uint64{"near": 7},
	}
	res := fromMetrics(internal, obs.NewRegistry())
	if !reflect.DeepEqual(res.Breakdown, internal.TransmissionsByCategory) {
		t.Fatalf("breakdown not copied: %v", res.Breakdown)
	}
	res.Breakdown["near"] = 0
	res.Breakdown["sabotage"] = 1
	if internal.TransmissionsByCategory["near"] != 7 || len(internal.TransmissionsByCategory) != 1 {
		t.Fatalf("caller mutation reached internal metrics: %v", internal.TransmissionsByCategory)
	}
	if fromMetrics(&metrics.Result{Algorithm: "x"}, obs.NewRegistry()).Breakdown != nil {
		t.Fatal("nil category map produced a non-nil breakdown")
	}
}
