package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one metric on one workload, baseline against change.
const (
	verdictSame       = "same"
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
)

// verdict judges a change's runs of one end-to-end metric against the
// baseline's. A regression is a change median worse than the baseline's
// by more than the metric's bound. A gain needs the change to win at
// least nine tenths of the paired runs (pair i is run i of each; ties
// count for neither) and the medians to differ by more than the
// baseline's interquartile range. When either side's spread exceeds the
// bound the metric is unresolved, unless every change run reads better,
// or every one worse, than every baseline run.
func verdict(d metricDef, base, change []float64) string {
	better := func(x, y float64) bool {
		if d.Better == "higher" {
			return x > y
		}
		return x < y
	}
	mb, mc := median(base), median(change)
	allBetter, allWorse := true, true
	for _, b := range base {
		for _, c := range change {
			allBetter = allBetter && better(c, b)
			allWorse = allWorse && better(b, c)
		}
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	iqr := quantile(base, 0.75) - quantile(base, 0.25)
	switch {
	case (spread(base) > d.Bound || spread(change) > d.Bound) && !allBetter && !allWorse:
		return verdictUnresolved
	case pairs > 0 && 10*wins >= 9*pairs && better(mc, mb) && math.Abs(mc-mb) > iqr:
		return verdictGain
	case better(mb, mc) && math.Abs(mc-mb) > d.Bound*math.Abs(mb):
		return verdictRegression
	}
	return verdictSame
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles with the verdict, and fails if any metric
// regressed.
func compareFiles(basePath, changePath string, w io.Writer) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	change, err := readResults(changePath)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		label string
		h     header
	}{{"baseline", base.Header}, {"change", change.Header}} {
		fmt.Fprintf(w, "%-8s commit %s (modified %v), %s, nproc %d, GOMAXPROCS %d, %s, seed %d, %s\n",
			f.label, f.h.Commit, f.h.Modified, f.h.GoVersion, f.h.Nproc, f.h.GOMAXPROCS, f.h.CPU, f.h.Seed, f.h.Date)
	}
	regressions := 0
	for _, bw := range base.Workloads {
		var cw *workloadResults
		for i := range change.Workloads {
			if change.Workloads[i].Name == bw.Name {
				cw = &change.Workloads[i]
			}
		}
		if cw == nil {
			fmt.Fprintf(w, "%s: missing from %s\n", bw.Name, changePath)
			continue
		}
		fmt.Fprintf(w, "\n== %s (%d baseline runs, %d change runs)\n", bw.Name, len(bw.Runs), len(cw.Runs))
		for _, d := range endToEnd {
			b, c := values(bw.Runs, d.Name), values(cw.Runs, d.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v := verdict(d, b, c)
			if v == verdictRegression {
				regressions++
			}
			fmt.Fprintf(w, "  %-16s %-6s  base %-12.6g [%.6g, %.6g]  change %-12.6g [%.6g, %.6g]  %+6.1f%%  %s\n",
				d.Name, d.Unit, median(b), quantile(b, 0.25), quantile(b, 0.75),
				median(c), quantile(c, 0.25), quantile(c, 0.75), 100*ratio(median(c)-median(b), median(b)), v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}
