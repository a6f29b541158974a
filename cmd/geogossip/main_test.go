package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunEveryAlgorithmName(t *testing.T) {
	// The result label each -algo name must run under (at n=128 the
	// hierarchy has one level, so the recursive engine reports itself
	// as affine-flat).
	names := map[string]string{
		"boyd":                "boyd",
		"geographic":          "geographic-rejection",
		"push-sum":            "push-sum",
		"affine-hierarchical": "affine-flat",
		"affine-async":        "affine-async",
		"affine":              "affine-flat",
		"async":               "affine-async",
		"geographic-uniform":  "geographic-uniform-node",
	}
	for name, label := range names {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-n", "128", "-eps", "1e-2", "-maxticks", "2000000", "-algo", name}, &out)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"algorithm: " + label + "\n", "converged: true"} {
				if !strings.Contains(out.String(), want) {
					t.Fatalf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "128", "-algo", "gossip"}, &out)
	if err == nil || !strings.Contains(err.Error(), "push-sum") {
		t.Fatalf("unknown algorithm: err = %v, want one listing the valid names", err)
	}
}
