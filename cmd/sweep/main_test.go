package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"geogossip"
)

// TestMain runs the command itself when the test binary is re-executed
// with SWEEP_TEST_MAIN set, so a test can check what main prints.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its stderr, failing
// the test unless it exits with status 1.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v: exit %v, want status 1", args, err)
	}
	return stderr.String()
}

// TestInvalidGridPrintsNoTaskCount checks that an invalid grid fails
// before the coordinator banner or the resume line reports a task count
// for it: the error is all the command prints.
func TestInvalidGridPrintsNoTaskCount(t *testing.T) {
	prior := filepath.Join(t.TempDir(), "prior.jsonl")
	if err := os.WriteFile(prior, []byte(`{"task_id":0,"algorithm":"boyd","n":64}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	grid := []string{"-algos", "boyd", "-ns", "64", "-seeds", "-2"}
	for _, extra := range [][]string{
		{"-serve", "127.0.0.1:0"},
		{"-resume", "-out", prior},
	} {
		args := append(append([]string(nil), grid...), extra...)
		if got, want := runMain(t, args...), "sweep: Seeds value -2 is negative\n"; got != want {
			t.Errorf("%v: stderr %q, want only %q", args, got, want)
		}
	}
}

// TestErrorsCarryOnePrefix checks that main prints every error with
// exactly one "sweep:" prefix, both for errors the sweep package already
// prefixes (spec validation) and for the command's own (flag checks).
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-betas", "-1"}, "sweep: Betas value -1 is negative"},
		{[]string{"-seeds", "1099511627776"}, "sweep: grid expands to more than 1048576 tasks"},
		{[]string{"-resume"}, "sweep: -resume needs -out FILE: stdout output cannot be re-read"},
	} {
		// The error is the last line; progress and phase lines precede it.
		lines := strings.Split(strings.TrimSuffix(runMain(t, tc.args...), "\n"), "\n")
		if got := lines[len(lines)-1]; got != tc.want {
			t.Errorf("%v: error line %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestAggregationNamesUnconvergedCells checks that the summary names the
// cells the fits left out, and prints nothing for them when every cell
// converged, so a converged grid's summary keeps its bytes.
func TestAggregationNamesUnconvergedCells(t *testing.T) {
	var rep geogossip.SweepReport
	var buf bytes.Buffer
	printAggregation(&buf, &rep)
	if strings.Contains(buf.String(), "leave out") {
		t.Errorf("converged grid's summary names left-out cells:\n%s", buf.String())
	}
	rep.UnconvergedCells = 2
	buf.Reset()
	printAggregation(&buf, &rep)
	if want := "\nfits leave out 2 cells in which a run missed the target error\n"; !strings.HasSuffix(buf.String(), want) {
		t.Errorf("summary %q does not end with %q", buf.String(), want)
	}
}
