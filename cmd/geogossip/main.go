// Command geogossip runs one averaging algorithm on a generated geometric
// random graph and prints the cost summary and convergence trace.
//
// Usage:
//
//	geogossip -n 2048 -algo affine-hierarchical -eps 1e-3 [-seed 1] [-c 1.5] [-curve]
//
// Algorithms: boyd, geographic, push-sum, affine-hierarchical and
// affine-async, plus the earlier spellings affine, async and
// geographic-uniform (geographic with uniform partner sampling).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"geogossip"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "geogossip:", err)
		os.Exit(1)
	}
}

// legacyNames maps the command's earlier -algo spellings to engine names.
var legacyNames = map[string]string{
	"affine":             "affine-hierarchical",
	"async":              "affine-async",
	"geographic-uniform": "geographic",
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("geogossip", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 1024, "number of sensors")
		c       = fs.Float64("c", 1.5, "radius multiplier in r = c*sqrt(log n / n)")
		seed    = fs.Uint64("seed", 1, "placement seed")
		algo    = fs.String("algo", "affine", "algorithm: boyd | geographic | push-sum | affine-hierarchical | affine-async (also affine, async, geographic-uniform)")
		eps     = fs.Float64("eps", 1e-3, "target relative l2 error")
		ticks   = fs.Uint64("maxticks", 200_000_000, "clock tick cap")
		curve   = fs.Bool("curve", false, "print the sampled (transmissions, error) trajectory")
		flat    = fs.Bool("flat", false, "use a flat single-level hierarchy (ablation)")
		loss    = fs.Float64("loss", 0, "data-packet loss probability")
		save    = fs.String("save", "", "write the generated network to this file as a binary snapshot and exit")
		load    = fs.String("load", "", "load the network from this file instead of generating (binary snapshot, legacy JSON, or either gzipped — sniffed automatically)")
		doTrace = fs.Bool("trace", false, "stream protocol events to stderr (affine algorithms)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var nw *geogossip.Network
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		nw, err = geogossip.LoadNetwork(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		opts := []geogossip.NetworkOption{
			geogossip.WithSeed(*seed),
			geogossip.WithRadiusMultiplier(*c),
		}
		if *flat {
			opts = append(opts, geogossip.WithFlatHierarchy())
		}
		var err error
		nw, err = geogossip.NewNetwork(*n, opts...)
		if err != nil {
			return err
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := nw.Save(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "network with %d sensors written to %s\n", nw.N(), *save)
		return nil
	}

	runOpts := []geogossip.RunOption{
		geogossip.WithTargetError(*eps),
		geogossip.WithMaxTicks(*ticks),
		geogossip.WithRunSeed(*seed + 1),
	}
	if *loss > 0 {
		runOpts = append(runOpts, geogossip.WithLossRate(*loss))
	}
	if *doTrace {
		runOpts = append(runOpts, geogossip.WithTraceWriter(os.Stderr))
	}
	if *algo == "geographic-uniform" {
		runOpts = append(runOpts, geogossip.WithUniformSampling())
	}
	name := *algo
	if canon, ok := legacyNames[name]; ok {
		name = canon
	}
	algorithm, err := geogossip.NewAlgorithm(name, runOpts...)
	if err != nil {
		return err
	}

	// Initial field: each sensor measures x·10 + sin(7y) plus its index
	// parity — an arbitrary smooth-plus-rough field.
	values := make([]float64, nw.N())
	for i, p := range nw.Positions() {
		values[i] = p[0]*10 + math.Sin(p[1]*7) + float64(i%2)
	}
	want := geogossip.Mean(values)

	fmt.Fprintf(stdout, "network:   n=%d  radius=%.4f  edges=%d  mean degree=%.1f  hierarchy levels=%d\n",
		nw.N(), nw.Radius(), nw.Edges(), nw.MeanDegree(), nw.HierarchyLevels())
	res, err := algorithm.Run(nw, values)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "algorithm: %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "converged: %v  (final relative error %.3g, target %.3g)\n", res.Converged, res.FinalErr, *eps)
	fmt.Fprintf(stdout, "true mean: %.6f   sensor 0 now holds: %.6f\n", want, values[0])
	fmt.Fprintf(stdout, "transmissions: %d\n", res.Transmissions)
	keys := make([]string, 0, len(res.Breakdown))
	for k := range res.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if res.Breakdown[k] > 0 {
			fmt.Fprintf(stdout, "  %-8s %d\n", k, res.Breakdown[k])
		}
	}
	if *curve {
		fmt.Fprintln(stdout, "transmissions,relative_error")
		for _, pt := range res.Curve {
			fmt.Fprintf(stdout, "%.0f,%.6g\n", pt[0], pt[1])
		}
	}
	return nil
}
