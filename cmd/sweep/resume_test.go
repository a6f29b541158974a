package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGzipResumeKeepsEveryField: resuming a -gzip sink rewrites the
// recovered lines, and the rewrite must keep every field the sink wrote
// — an affine row's hierarchy_ell included — whether the sink was
// already complete or cut mid-stream by a killed run.
func TestGzipResumeKeepsEveryField(t *testing.T) {
	dir := t.TempDir()
	args := func(out string, extra ...string) []string {
		return append([]string{"-algos", "affine-hierarchical,boyd", "-ns", "96", "-seeds", "2",
			"-workers", "1", "-gzip", "-quiet", "-agg=false", "-out", out}, extra...)
	}
	full := filepath.Join(dir, "full.jsonl.gz")
	if err := run(args(full)); err != nil {
		t.Fatal(err)
	}
	want := gunzip(t, full)
	if !strings.Contains(string(want), `"hierarchy_ell"`) {
		t.Fatalf("sink has no affine hierarchy_ell field:\n%s", want)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"complete": raw, "cut": raw[:len(raw)/2]} {
		path := filepath.Join(dir, name+".jsonl.gz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(args(path, "-resume")); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := gunzip(t, path); !bytes.Equal(got, want) {
			t.Errorf("%s sink resumed to\n%s\nwant\n%s", name, got, want)
		}
	}
}

// gunzip returns the decompressed content of every gzip member in path.
func gunzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
