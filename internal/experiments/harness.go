// Package experiments implements the reproduction harness: one runner per
// experiment in DESIGN.md §2, each regenerating a table or figure derived
// from the paper's claims and checking the expected shape.
//
// Every runner takes a Config and returns a Report containing rendered
// tables/plots plus pass/fail findings; cmd/experiments writes them to
// results/, bench_test.go wraps them as benchmarks, and the package tests
// run them in Quick mode.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"geogossip/internal/graph"
	"geogossip/internal/rng"
	"geogossip/internal/table"
)

// Config controls experiment scale.
type Config struct {
	// Quick selects reduced sizes and trial counts suitable for CI; the
	// default (false) reproduces the full tables.
	Quick bool
	// Seed is the base seed; zero selects 1.
	Seed uint64
	// Workers sizes the sweep-engine pool the multi-trial runners execute
	// on; zero selects GOMAXPROCS. Per-trial seeds derive from Seed and
	// the trial index, so every worker count reproduces the same tables.
	Workers int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Finding is one checked claim.
type Finding struct {
	// Name describes what was checked.
	Name string
	// Detail carries the measured values.
	Detail string
	// OK reports whether the measurement matches the expected shape.
	OK bool
}

// Report is the output of one experiment.
type Report struct {
	// ID is the experiment id (e.g. "E1").
	ID string
	// Title names the regenerated artifact (e.g. "Table 1 — ...").
	Title string
	// Tables and Plots are the regenerated artifacts.
	Tables []*table.Table
	Plots  []*table.Plot
	// Findings are the shape checks.
	Findings []Finding
}

func (r *Report) addTable(t *table.Table) { r.Tables = append(r.Tables, t) }
func (r *Report) addPlot(p *table.Plot)   { r.Plots = append(r.Plots, p) }

func (r *Report) check(name string, ok bool, format string, args ...interface{}) {
	r.Findings = append(r.Findings, Finding{
		Name:   name,
		Detail: fmt.Sprintf(format, args...),
		OK:     ok,
	})
}

// OK reports whether every finding passed.
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if !f.OK {
			return false
		}
	}
	return true
}

// Write renders the full report.
func (r *Report) Write(w io.Writer) error {
	header := fmt.Sprintf("%s — %s", r.ID, r.Title)
	if _, err := fmt.Fprintf(w, "%s\n%s\n\n", header, strings.Repeat("=", len(header))); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.Plots {
		if err := p.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Findings {
		status := "PASS"
		if !f.OK {
			status = "FAIL"
		}
		if _, err := fmt.Fprintf(w, "[%s] %s: %s\n", status, f.Name, f.Detail); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner is one experiment entry point.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"E1", "Table 1 — transmission scaling of the three algorithms", RunE1Scaling},
		{"E2", "Figure 1 — Lemma 1 contraction vs bound", RunE2Lemma1},
		{"E3", "Figure 2 — Corollary 1/2 tail probability vs Markov bound", RunE3Tail},
		{"E4", "Figure 3 — Lemma 2 perturbed dynamics vs bound", RunE4Lemma2},
		{"E5", "Figure 4 — connectivity threshold of G(n, r)", RunE5Connectivity},
		{"E6", "Figure 5 — greedy routing hop scaling and delivery", RunE6Routing},
		{"E7", "Figure 6 — rejection-sampling uniformity", RunE7Rejection},
		{"E8", "Table 2 — first-level occupancy concentration", RunE8Occupancy},
		{"E9", "Figure 7 — transmissions vs target accuracy", RunE9EpsScaling},
		{"E10", "Table 3 — hierarchy shape vs n", RunE10Hierarchy},
		{"E11", "Figure 8 — affine-coefficient stability sweep", RunE11Stability},
		{"E12", "Table 4 — hierarchy/affine ablation", RunE12Ablation},
		{"E13", "Table 5 — async protocol control traffic and throttling", RunE13Control},
		{"E14", "Figure 9 — convergence trajectories at fixed n", RunE14Convergence},
		{"E15", "Figure 10 — per-level accuracy schedule ablation", RunE15EpsSchedule},
		{"E16", "Table 6 — mixing time vs nearest-neighbour gossip cost", RunE16Mixing},
	}
}

// connectedGraph generates G(n, c·sqrt(log n / n)) instances until one is
// connected (trying a few seeds), so experiment workloads always run on
// the regime the paper assumes.
func connectedGraph(n int, c float64, seed uint64) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	for attempt := uint64(0); attempt < 8; attempt++ {
		g, err = graph.Generate(n, c, rng.New(seed+attempt*1000003))
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("experiments: no connected G(%d, %.2f·sqrt(log n/n)) in 8 attempts", n, c)
}

// gaussianValues draws the standard initial measurement vector.
func gaussianValues(n int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func fmtF(v float64) string { return table.FormatFloat(v) }

func logSpace(lo, hi float64, k int) []float64 {
	if k < 2 {
		return []float64{lo}
	}
	out := make([]float64, k)
	ll, lh := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(ll + (lh-ll)*float64(i)/float64(k-1))
	}
	out[0], out[k-1] = lo, hi // pin endpoints exactly
	return out
}
