package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestErrorsCarryOnePrefix checks that main prints every error with
// exactly one "sweep:" prefix, both for errors the sweep package already
// prefixes (spec validation) and for the command's own (flag checks).
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-betas", "-1"}, "sweep: Betas value -1 is negative"},
		{[]string{"-resume"}, "sweep: -resume needs -out FILE: stdout output cannot be re-read"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%v: exit %v, want status 1", tc.args, err)
		}
		// The error is the last line; progress and phase lines precede it.
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if got := lines[len(lines)-1]; got != tc.want {
			t.Errorf("%v: error line %q, want %q", tc.args, got, tc.want)
		}
	}
}
