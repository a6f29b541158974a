package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true} }

// quickReportDigests pins the SHA-256 of every rendered Quick report
// (`cmd/experiments -quick` writes the same bytes to results/<ID>.txt).
// The runners are the only callers of the engines' ablation knobs, and
// their reports do not depend on the worker count, so any change to a
// digest is a change to an engine's output and must be deliberate.
var quickReportDigests = map[string]string{
	"E1":  "076de22e5da8b4651072d0012d5296237bb562de2478f857a801f1fb7f6545e4",
	"E2":  "92b8e9278458ca3d9f1ee770a58d11902c0f9ccdb707695e9696b46c0b2f5236",
	"E3":  "4b49a0332abea2115839a89dd7c9356bfc42eedf95a24a4c404da0ff2dd24c31",
	"E4":  "a337cb0d77050cc0d25c86140fe45e1142d61aa8a0f2a834596238b1f25ff21e",
	"E5":  "f7d164b6639b0cb253594a9c675a772d7f4e930ff7ec2ca7b7827b5e882668ef",
	"E6":  "04c8175587625846521740851259ad60d8b36fcc95b3750ab05d11f13d584a55",
	"E7":  "4c1162a9ccefb3f0bf40de259cc1e513180c7777cc303fe1c74aa68918195d2e",
	"E8":  "11b320ce38bc4c9c12ba8d671a5e6568afca1d9b9be82240f76fcc895c794e52",
	"E9":  "b9a68310b21df1904f0f9d81815e5ff86b55fb689b2a1db927d6a9a18cfa09e1",
	"E10": "9ace34ed53741edb4fe161012c511f9955ed7e309ce7115740d3b16787eb8e07",
	"E11": "8a720ee20a7c557fdc0596dade44687388797056b673aac0cdeaf2bb29b86aea",
	"E12": "31292afd7b3e2bd6be21ee1f42d25a11f57dbe7d3f8ef58baa434228b224e111",
	"E13": "fe6be8ce7784f86b35402c6b8c4688d7f4d4c49564607b26eb4bc7ac58dc9ff1",
	"E14": "0887161c6ab280f3db9713158595e2053320984f1745bbefed9f0bf0793bcdf0",
	"E15": "33e92f66fc0ecc2640fe36a7494747c850617e2c1911eb940c9e8b2797d038a2",
	"E16": "bf307cd1ed48b3687da783fdfb50d4ab092228c096536d5cef4a1dec88a1d730",
}

// runAndCheck executes an experiment in Quick mode and requires every
// finding to pass and the rendered report to match its pinned digest.
func runAndCheck(t *testing.T, run func(Config) (*Report, error)) *Report {
	t.Helper()
	rep, err := run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, rep.ID) {
		t.Fatalf("report output missing id:\n%s", out)
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != quickReportDigests[rep.ID] {
		t.Errorf("%s report digest %s, want %s:\n%s", rep.ID, got, quickReportDigests[rep.ID], out)
	}
	for _, f := range rep.Findings {
		if !f.OK {
			t.Errorf("finding failed: %s: %s", f.Name, f.Detail)
		}
	}
	if len(rep.Findings) == 0 {
		t.Fatal("experiment produced no findings")
	}
	if len(rep.Tables)+len(rep.Plots) == 0 {
		t.Fatal("experiment produced no artifacts")
	}
	return rep
}

func TestE1Scaling(t *testing.T) {
	if testing.Short() {
		t.Skip("E1 runs three full algorithms")
	}
	runAndCheck(t, RunE1Scaling)
}

func TestE2Lemma1(t *testing.T) { runAndCheck(t, RunE2Lemma1) }
func TestE3Tail(t *testing.T)   { runAndCheck(t, RunE3Tail) }
func TestE4Lemma2(t *testing.T) { runAndCheck(t, RunE4Lemma2) }

func TestE5Connectivity(t *testing.T) { runAndCheck(t, RunE5Connectivity) }

func TestE6Routing(t *testing.T) {
	if testing.Short() {
		t.Skip("E6 builds several graphs")
	}
	runAndCheck(t, RunE6Routing)
}

func TestE7Rejection(t *testing.T) {
	if testing.Short() {
		t.Skip("E7 draws many samples")
	}
	runAndCheck(t, RunE7Rejection)
}

func TestE8Occupancy(t *testing.T)  { runAndCheck(t, RunE8Occupancy) }
func TestE10Hierarchy(t *testing.T) { runAndCheck(t, RunE10Hierarchy) }

func TestE9EpsScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("E9 runs the affine algorithm at six accuracy targets")
	}
	runAndCheck(t, RunE9EpsScaling)
}

func TestE11Stability(t *testing.T) {
	if testing.Short() {
		t.Skip("E11 sweeps ten multipliers")
	}
	runAndCheck(t, RunE11Stability)
}

func TestE12Ablation(t *testing.T) {
	if testing.Short() {
		t.Skip("E12 runs four variants")
	}
	runAndCheck(t, RunE12Ablation)
}

func TestE13Control(t *testing.T) {
	if testing.Short() {
		t.Skip("E13 runs the async protocol at three throttles")
	}
	runAndCheck(t, RunE13Control)
}

func TestE14Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("E14 runs three full algorithms")
	}
	runAndCheck(t, RunE14Convergence)
}

func TestE15EpsSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("E15 sweeps seven schedules")
	}
	runAndCheck(t, RunE15EpsSchedule)
}

func TestE16Mixing(t *testing.T) {
	if testing.Short() {
		t.Skip("E16 runs power iteration and full gossip at several sizes")
	}
	runAndCheck(t, RunE16Mixing)
}

func TestAllListsEveryExperiment(t *testing.T) {
	runners := All()
	if len(runners) != 16 {
		t.Fatalf("All() lists %d experiments, want 16", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner: %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestReportWriteMarksFailures(t *testing.T) {
	rep := &Report{ID: "EX", Title: "test"}
	rep.check("good", true, "fine")
	rep.check("bad", false, "broken: %d", 7)
	if rep.OK() {
		t.Fatal("report with failure reports OK")
	}
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "[PASS] good") || !strings.Contains(out, "[FAIL] bad: broken: 7") {
		t.Fatalf("report output:\n%s", out)
	}
}

func TestConnectedGraphHelper(t *testing.T) {
	g, err := connectedGraph(256, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("helper returned disconnected graph")
	}
	// Far sub-threshold: should fail after bounded attempts.
	if _, err := connectedGraph(4096, 0.3, 1); err == nil {
		t.Fatal("sub-threshold graph reported connected")
	}
}

func TestLogSpace(t *testing.T) {
	xs := logSpace(1, 100, 3)
	if len(xs) != 3 || xs[0] != 1 || xs[2] != 100 {
		t.Fatalf("logSpace = %v", xs)
	}
	if xs[1] < 9.9 || xs[1] > 10.1 {
		t.Fatalf("geometric midpoint = %v", xs[1])
	}
	if got := logSpace(5, 50, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("single point = %v", got)
	}
}

// The multi-trial runners execute on the sweep engine; their reports must
// be bit-identical at any worker count (reductions happen in trial
// order, never completion order).
func TestTrialRunnersDeterministicAcrossWorkers(t *testing.T) {
	runners := []func(Config) (*Report, error){RunE2Lemma1, RunE3Tail, RunE4Lemma2}
	if !testing.Short() {
		runners = append(runners, RunE16Mixing)
	}
	for i, run := range runners {
		render := func(workers int) string {
			rep, err := run(Config{Quick: true, Workers: workers})
			if err != nil {
				t.Fatalf("runner %d workers=%d: %v", i, workers, err)
			}
			var b strings.Builder
			if err := rep.Write(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		if render(1) != render(8) {
			t.Errorf("runner %d renders differently at 1 and 8 workers", i)
		}
	}
}
