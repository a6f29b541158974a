package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestTransportAxisExpansion(t *testing.T) {
	spec := Spec{
		Algorithms: []string{AlgoBoyd, AlgoPushSum},
		Ns:         []int{64},
		Transports: []string{"", "arq:2/1/2", "delay:exp/0.5"},
	}
	if got, want := spec.TaskCount(), 2*3; got != want {
		t.Fatalf("TaskCount = %d, want %d", got, want)
	}
	seen := map[string]int{}
	for _, task := range spec.Expand() {
		seen[task.Algorithm+"|"+task.Transport]++
	}
	if len(seen) != 6 {
		t.Fatalf("expansion covered %d (algorithm, transport) pairs, want 6: %v", len(seen), seen)
	}
}

func TestTransportAxisCanonicalization(t *testing.T) {
	spec := Spec{
		Algorithms: []string{AlgoBoyd},
		Ns:         []int{64},
		Transports: []string{"perfect", "arq:2/1.0/2", "delay:fixed/.5"},
	}
	norm := spec.Normalized()
	want := []string{"", "arq:2/1/2", "delay:fixed/0.5"}
	if len(norm.Transports) != len(want) {
		t.Fatalf("normalized transports %v, want %v", norm.Transports, want)
	}
	for i := range want {
		if norm.Transports[i] != want[i] {
			t.Fatalf("normalized transports %v, want %v", norm.Transports, want)
		}
	}
	// An omitted axis defaults to the single transport-free entry.
	bare := Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}}.Normalized()
	if len(bare.Transports) != 1 || bare.Transports[0] != "" {
		t.Fatalf("defaulted transports %v, want [\"\"]", bare.Transports)
	}
}

// TestTransportSeedBackCompat: an empty transport folds nothing into the
// run seed, so grids without the axis keep their derived seeds — and
// their results — unchanged; non-empty transports get distinct seeds.
func TestTransportSeedBackCompat(t *testing.T) {
	base := Task{Algorithm: AlgoBoyd, N: 128, BaseSeed: 1, FaultModel: "bernoulli:0.1"}
	withARQ := base
	withARQ.Transport = "arq:2/1/2"
	if base.runSeed() == withARQ.runSeed() {
		t.Fatal("transport did not change the run seed")
	}
	other := base
	other.Transport = "arq:3/1/2"
	if withARQ.runSeed() == other.runSeed() {
		t.Fatal("distinct transports derived the same run seed")
	}
}

func TestTransportAxisValidation(t *testing.T) {
	lossy := Spec{
		Algorithms: []string{AlgoBoyd},
		Ns:         []int{64},
		Transports: []string{"bernoulli:0.2"},
	}
	err := lossy.Normalized().Validate()
	if err == nil {
		t.Fatal("loss model accepted on the transport axis")
	}
	crossed := Spec{
		Algorithms:  []string{AlgoBoyd},
		Ns:          []int{64},
		FaultModels: []string{"ge:0.05/0.2/0.01/0.6+arq:2/1/2"},
		Transports:  []string{"", "delay:exp/0.5"},
	}
	err = crossed.Normalized().Validate()
	if err == nil {
		t.Fatal("transport axis crossed with a transport-carrying fault model validated")
	}
	if !strings.Contains(err.Error(), "transport") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Plain fault models compose with the transport axis; a fault model
	// may carry transport components when the axis is absent.
	for _, good := range []Spec{
		{
			Algorithms:  []string{AlgoBoyd},
			Ns:          []int{64},
			FaultModels: []string{"", "ge:0.05/0.2/0.01/0.6"},
			Transports:  []string{"", "delay:exp/0.5+arq:2/1/2"},
		},
		{
			Algorithms:  []string{AlgoBoyd},
			Ns:          []int{64},
			FaultModels: []string{"bernoulli:0.1+arq:2/1/2"},
		},
	} {
		if err := good.Normalized().Validate(); err != nil {
			t.Fatalf("good spec rejected: %v", err)
		}
	}
}

// TestMediumAxesCompose: the three medium axes compose into one
// channel spec, so a loss rate crossed with a transport runs the medium
// of the fault model that spells both.
func TestMediumAxesCompose(t *testing.T) {
	crossed := Spec{
		Algorithms: []string{AlgoBoyd},
		Ns:         []int{64},
		LossRates:  []float64{0.1},
		Transports: []string{"arq:3/1/2"},
	}.Expand()
	spelled := Spec{
		Algorithms:  []string{AlgoBoyd},
		Ns:          []int{64},
		FaultModels: []string{"bernoulli:0.1+arq:3/1/2"},
	}.Expand()
	a, err := crossed[0].faults()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spelled[0].faults()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("LossRates x Transports resolved to %+v, the fault model to %+v", a, b)
	}
}

func TestTransportExecuteEndToEnd(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{AlgoBoyd, AlgoAffine},
		Ns:          []int{64},
		TargetErr:   5e-2,
		FaultModels: []string{"bernoulli:0.1"},
		Transports:  []string{"", "delay:exp/0.3+arq:2/1/2"},
	}
	results, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != spec.TaskCount() {
		t.Fatalf("got %d results, want %d", len(results), spec.TaskCount())
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("task %d (%s, transport %q) failed: %s", r.TaskID, r.Algorithm, r.Transport, r.Error)
		}
		if r.Transport == "" {
			if r.SimSeconds != 0 {
				t.Fatalf("transport-free task %d reports sim time %v", r.TaskID, r.SimSeconds)
			}
			continue
		}
		if r.SimSeconds <= 0 {
			t.Fatalf("transport task %d (%s) reports no sim time", r.TaskID, r.Algorithm)
		}
	}

	// The transport-free lane must be unchanged by adding the axis: same
	// seeds, same results as a grid that never mentioned transports.
	plain := spec
	plain.Transports = nil
	baseline, err := Run(context.Background(), plain, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]TaskResult{}
	for _, r := range results {
		if r.Transport == "" {
			byAlgo[r.Algorithm] = r
		}
	}
	for _, want := range baseline {
		got, ok := byAlgo[want.Algorithm]
		if !ok {
			t.Fatalf("no transport-free result for %s", want.Algorithm)
		}
		if got.Transmissions != want.Transmissions || got.FinalErr != want.FinalErr || got.Converged != want.Converged {
			t.Fatalf("%s: transport axis perturbed the transport-free lane:\n have %+v\n want %+v",
				want.Algorithm, got, want)
		}
	}

	// Aggregation keys cells by transport and carries the sim-time
	// distribution only where the axis is live.
	sum := Aggregate(results)
	if len(sum.Cells) != 4 {
		t.Fatalf("aggregation built %d cells, want 4", len(sum.Cells))
	}
	for _, c := range sum.Cells {
		if c.Transport == "" && c.SimSeconds != nil {
			t.Fatalf("transport-free cell %+v carries a sim-time distribution", c.CellKey)
		}
		if c.Transport != "" && (c.SimSeconds == nil || c.SimSeconds.Mean <= 0) {
			t.Fatalf("transport cell %+v missing its sim-time distribution", c.CellKey)
		}
	}
}

// TestResumeDetectsTransportMismatch: a resumed result whose transport
// disagrees with the current grid is a different spec, not a silent
// merge.
func TestResumeDetectsTransportMismatch(t *testing.T) {
	spec := Spec{
		Algorithms: []string{AlgoBoyd},
		Ns:         []int{64},
		TargetErr:  5e-2,
		Transports: []string{"arq:2/1/2"},
	}
	tasks := spec.Normalized().Expand()
	prior := TaskResult{
		TaskID:           0,
		Algorithm:        AlgoBoyd,
		N:                64,
		Transport:        "arq:9/1/2", // disagrees with the grid
		TargetErr:        tasks[0].TargetErr,
		MaxTicks:         tasks[0].MaxTicks,
		RadiusMultiplier: tasks[0].RadiusMultiplier,
		Field:            tasks[0].Field,
		RunSeed:          tasks[0].runSeed(),
	}
	if _, err := Run(context.Background(), spec, Options{Resume: []TaskResult{prior}}); err == nil {
		t.Fatal("transport mismatch on resume accepted")
	}
}
