// Command bench measures the geogossip sweep stack end to end and layer
// by layer on four fixed workloads; README.md catalogues its metrics.
// Build and run it from the checkout root with bench/run.sh:
//
//	bash bench/run.sh                                  # every workload: -runs untraced runs and one traced run each
//	bash bench/run.sh -workload grid-ref -seed 3 -seconds 25 -trace 0
//	bash bench/run.sh -compare before.json after.json
//
// With -trace, the command makes one run and prints its result as one
// JSON line: the end-to-end metrics for -trace 0, the per-layer metrics
// for -trace 1. Without it, the command runs each selected workload -runs
// times untraced and once traced, each run a fresh child process, prints
// every metric, and writes -out and -spans.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"geogossip"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs failed a correctness check; its
// result line is still printed.
var errIncorrect = fmt.Errorf("outputs failed a correctness check")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run; with -trace exactly one, otherwise a comma-separated list (default all: "+strings.Join(workloadNames(), ",")+")")
		seed     = fs.Uint64("seed", 1, "SweepSpec.BaseSeed of the workload grid")
		seconds  = fs.Int("seconds", 25, "how long one untraced run measures: set-up samples, then grid passes, while they fit")
		trace    = fs.Int("trace", -1, "make one run and print its result line: 0 untraced (end-to-end metrics), 1 traced (per-layer metrics)")
		runs     = fs.Int("runs", 5, "untraced runs per workload")
		workdir  = fs.String("workdir", "", "scratch directory for network stores and default outputs (default: work/ beside the binary)")
		out      = fs.String("out", "", "write every run's result, with the run header, to this JSON file (default WORKDIR/results.json)")
		spans    = fs.String("spans", "", "append the traced runs' spans to this JSON-lines file (default WORKDIR/spans.jsonl when running every workload)")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments: baseline, then change")
		setup    = fs.String("setup", "", "set up the networks of this SweepSpec (JSON) through geogossip.Sweep, repeatedly for a moment, print the median set-up time and the peak RSS after the first as one JSON line, and exit: how a run takes its set-up samples")
		store    = fs.String("store", "", "with -setup: the network store directory to set up through")
		cold     = fs.Bool("cold", false, "with -setup and -store: give every repetition after the first a fresh empty store under -store")
		golden   = fs.Bool("write-golden", false, "write bench/golden/<workload>.sha256 under the working directory (the checkout root): the seed-1 sink digest of each -workload through geogossip.Sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *workdir == "" {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		*workdir = filepath.Join(filepath.Dir(self), "work")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	c := &config{workers: runtime.NumCPU(), workdir: *workdir, log: stderr}
	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}

	switch {
	case *setup != "":
		var spec geogossip.SweepSpec
		if err := decodeStrict([]byte(*setup), &spec); err != nil {
			return fmt.Errorf("-setup: %w", err)
		}
		s, err := setupRepeat(spec, c, *store, *cold)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(s)
	case *golden:
		return writeGolden(names, c)
	case *trace >= 0:
		if len(names) != 1 {
			return fmt.Errorf("-trace runs exactly one -workload")
		}
		res, err := runOne(names[0], *seed, *seconds, *trace == 1, *spans, c)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return errIncorrect
		}
		return nil
	}
	if *out == "" {
		*out = filepath.Join(*workdir, "results.json")
	}
	if *spans == "" {
		*spans = filepath.Join(*workdir, "spans.jsonl")
	}
	return orchestrate(names, *seed, *seconds, *runs, *out, *spans, c, stdout)
}

// runOne makes one run of the named workload in this process.
func runOne(name string, seed uint64, seconds int, traced bool, spansPath string, c *config) (runResult, error) {
	w, err := loadWorkload(name, seed)
	if err != nil {
		return runResult{}, err
	}
	hdr, _ := json.Marshal(newHeader(seed)) // a struct of strings and numbers always marshals
	fmt.Fprintf(c.log, "bench: %s seed %d trace %v %s\n", name, seed, traced, hdr)
	var (
		res      runResult
		problems []string
		tr       *tracer
	)
	if traced {
		tr = newTracer(name)
		res, problems, err = traceRun(w, c, tr)
	} else {
		res, problems, err = timedRun(w, c, seconds)
	}
	if err != nil {
		return runResult{}, err
	}
	for _, p := range problems {
		fmt.Fprintf(c.log, "bench: %s: INCORRECT: %s\n", name, p)
	}
	if tr != nil && spansPath != "" {
		if err := appendSpans(spansPath, tr); err != nil {
			return runResult{}, err
		}
	}
	return res, nil
}

func appendSpans(path string, tr *tracer) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// results is the -out file: every run of every workload, headed by the
// run header. -compare reads two of them.
type results struct {
	Header    header            `json:"header"`
	Workloads []workloadResults `json:"workloads"`
}

type workloadResults struct {
	Name  string      `json:"name"`
	Runs  []runResult `json:"runs"`
	Trace runResult   `json:"trace"`
}

// orchestrate runs every named workload `runs` times untraced and once
// traced, each run a child process of this binary, then prints and
// writes the results. It fails if any run reported incorrect outputs.
func orchestrate(names []string, seed uint64, seconds, runs int, outPath, spansPath string, c *config, stdout io.Writer) error {
	for _, n := range names {
		if _, err := loadWorkload(n, seed); err != nil {
			return err
		}
	}
	all := results{Header: newHeader(seed)}
	hdr, err := json.Marshal(map[string]header{"header": all.Header})
	if err != nil {
		return err
	}
	if err := os.WriteFile(spansPath, append(hdr, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", hdr)
	incorrect := false
	for _, name := range names {
		wr := workloadResults{Name: name}
		for i := 0; i < runs; i++ {
			r, err := child(c, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i+1, err)
			}
			incorrect = incorrect || !r.Correct
			wr.Runs = append(wr.Runs, r)
		}
		r, err := child(c, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-trace", "1", "-spans", spansPath)
		if err != nil {
			return fmt.Errorf("%s traced run: %w", name, err)
		}
		incorrect = incorrect || !r.Correct
		wr.Trace = r
		printWorkload(stdout, wr)
		all.Workloads = append(all.Workloads, wr)
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "results: %s\nspans: %s\n", outPath, spansPath)
	if incorrect {
		return errIncorrect
	}
	return nil
}

// child runs this binary with args and parses the result line it prints
// last. A run that reports incorrect outputs exits non-zero but still
// prints its line, which is returned.
func child(c *config, args ...string) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(self, append([]string{"-workdir", c.workdir}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, c.log
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return r, runErr
		}
		return r, fmt.Errorf("result line: %w", err)
	}
	return r, nil
}

// printWorkload prints one workload's end-to-end metrics as median and
// quartiles over its runs, then its traced run's per-layer metrics.
func printWorkload(w io.Writer, wr workloadResults) {
	fmt.Fprintf(w, "\n== %s: %d untraced runs\n", wr.Name, len(wr.Runs))
	for _, d := range endToEnd {
		xs := values(wr.Runs, d.Name)
		fmt.Fprintf(w, "  %-16s %12.6g %-6s  q1 %-12.6g q3 %-12.6g spread %5.1f%%  (%s is better, bound %g%%)\n",
			d.Name, median(xs), d.Unit, quantile(xs, 0.25), quantile(xs, 0.75), 100*spread(xs), d.Better, 100*d.Bound)
	}
	fmt.Fprintf(w, "== %s: traced run (correct %v)\n", wr.Name, wr.Trace.Correct)
	for _, d := range perLayer {
		m := wr.Trace.Metrics[d.Name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// values collects one metric across runs.
func values(runs []runResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// writeGolden records each workload's seed-1 sink digest, computed
// through geogossip.Sweep, under bench/golden of the working directory
// (run.sh runs from the checkout root).
func writeGolden(names []string, c *config) error {
	for _, name := range names {
		w, err := loadWorkload(name, 1)
		if err != nil {
			return err
		}
		ref, err := runReference(w, c, &stores{c: c, mode: storeNone})
		if err != nil {
			return err
		}
		path := filepath.Join("bench", "golden", name+".sha256")
		if err := os.WriteFile(path, []byte(ref.digest+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(c.log, "%s %s\n", path, ref.digest)
	}
	return nil
}
