package sweep

import (
	"context"
	"strings"
	"testing"
)

func TestFaultModelAxisExpansion(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{AlgoBoyd, AlgoPushSum},
		Ns:          []int{64},
		FaultModels: []string{"", "ge:0.05/0.2/0.01/0.6", "churn:5000/1000"},
	}
	if got, want := spec.TaskCount(), 2*3; got != want {
		t.Fatalf("TaskCount = %d, want %d", got, want)
	}
	tasks := spec.Expand()
	seen := map[string]int{}
	for _, task := range tasks {
		seen[task.Algorithm+"|"+task.FaultModel]++
	}
	if len(seen) != 6 {
		t.Fatalf("expansion covered %d (algorithm, fault) pairs, want 6: %v", len(seen), seen)
	}
}

// TestFaultModelSeedBackCompat: an empty fault model folds nothing into
// the run seed, so pre-fault-axis grids keep their derived seeds — and
// their results — unchanged; non-empty models get distinct seeds.
func TestFaultModelSeedBackCompat(t *testing.T) {
	base := Task{Params: Params{Algorithm: AlgoBoyd, N: 128}, BaseSeed: 1}
	withModel := base
	withModel.FaultModel = "churn:5000/0"
	if base.runSeed() == withModel.runSeed() {
		t.Fatal("fault model did not change the run seed")
	}
	other := base
	other.FaultModel = "churn:5000/1"
	if withModel.runSeed() == other.runSeed() {
		t.Fatal("distinct fault models derived the same run seed")
	}
}

func TestFaultModelValidation(t *testing.T) {
	bad := Spec{Algorithms: []string{AlgoBoyd}, Ns: []int{64}, FaultModels: []string{"quantum:1"}}
	if err := bad.Normalized().Validate(); err == nil {
		t.Fatal("unknown fault model validated")
	}
	crossed := Spec{
		Algorithms:  []string{AlgoBoyd},
		Ns:          []int{64},
		LossRates:   []float64{0, 0.2},
		FaultModels: []string{"bernoulli:0.1"},
	}
	err := crossed.Normalized().Validate()
	if err == nil {
		t.Fatal("loss axis crossed with a loss-model fault entry validated")
	}
	if !strings.Contains(err.Error(), "cannot be crossed") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// Churn-only fault entries compose with the loss axis.
	composed := Spec{
		Algorithms:  []string{AlgoBoyd},
		Ns:          []int{64},
		LossRates:   []float64{0, 0.2},
		FaultModels: []string{"", "churn:5000/1000"},
	}
	if err := composed.Normalized().Validate(); err != nil {
		t.Fatalf("churn-only fault entry with loss axis rejected: %v", err)
	}
}

func TestFaultModelExecuteEndToEnd(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{AlgoBoyd, AlgoPushSum, AlgoAffine},
		Ns:          []int{96},
		TargetErr:   5e-2,
		FaultModels: []string{"ge:0.05/0.2/0.01/0.6", "bernoulli:0.1+churn:50000/10000"},
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
			t.Fatalf("task %d (%s, %s) failed: %s", r.TaskID, r.Algorithm, r.FaultModel, r.Error)
		}
		if r.FaultModel == "" {
			t.Fatalf("task %d lost its fault model", r.TaskID)
		}
		if !r.Converged {
			t.Errorf("task %d (%s, %s) did not converge (err %v)", r.TaskID, r.Algorithm, r.FaultModel, r.FinalErr)
		}
	}
	// Aggregation keys cells by fault model: 3 algorithms × 2 models.
	sum := Aggregate(results)
	if len(sum.Cells) != 6 {
		t.Fatalf("aggregation built %d cells, want 6", len(sum.Cells))
	}
}

// TestResumeDetectsFaultModelMismatch: a resumed result whose fault
// model disagrees with the current grid is a different spec, not a
// silent merge.
func TestResumeDetectsFaultModelMismatch(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{AlgoBoyd},
		Ns:          []int{64},
		TargetErr:   5e-2,
		FaultModels: []string{"churn:5000/1000"},
	}
	tasks := spec.Normalized().Expand()
	prior := TaskResult{TaskID: 0, Params: tasks[0].Params, RunSeed: tasks[0].runSeed()}
	prior.FaultModel = "churn:9999/0" // disagrees with the grid
	if _, err := Run(context.Background(), spec, Options{Resume: []TaskResult{prior}}); err == nil {
		t.Fatal("fault-model mismatch on resume accepted")
	}
}
