package experiments

import (
	"fmt"
	"math"

	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
	"geogossip/internal/stats"
	"geogossip/internal/table"
)

// RunE5Connectivity regenerates Figure 4: the empirical probability that
// G(n, c·sqrt(log n/n)) is connected as a function of the radius
// multiplier c — the Gupta–Kumar threshold the whole construction relies
// on.
func RunE5Connectivity(cfg Config) (*Report, error) {
	rep := &Report{ID: "E5", Title: "Figure 4 — connectivity threshold of G(n, r)"}
	ns := []int{256, 1024, 4096}
	trials := 40
	if cfg.Quick {
		ns = []int{256, 1024}
		trials = 12
	}
	cs := []float64{0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5}
	tb := table.New("P(connected), "+fmtF(float64(trials))+" instances per cell",
		append([]string{"c \\ n"}, intHeaders(ns)...)...)
	plot := &table.Plot{
		Title:  "Figure 4: P(G(n, c·sqrt(log n/n)) connected) vs c",
		XLabel: "radius multiplier c",
		YLabel: "P(connected)",
	}
	probs := make(map[int][]float64)
	for _, c := range cs {
		row := []string{fmtF(c)}
		for _, n := range ns {
			connected := 0
			for trial := 0; trial < trials; trial++ {
				g, err := graph.Generate(n, c, rng.New(cfg.seed()+uint64(trial)*31+uint64(n)*17))
				if err != nil {
					return nil, err
				}
				if g.IsConnected() {
					connected++
				}
			}
			p := float64(connected) / float64(trials)
			probs[n] = append(probs[n], p)
			row = append(row, fmtF(p))
		}
		tb.AddRow(row...)
	}
	for _, n := range ns {
		plot.Add(fmt.Sprintf("n=%d", n), cs, probs[n])
	}
	rep.addTable(tb)
	rep.addPlot(plot)
	for _, n := range ns {
		p := probs[n]
		rep.check(fmt.Sprintf("high-c regime connected (n=%d)", n), p[len(p)-1] >= 0.95,
			"P(connected) = %v at c=2.5", p[len(p)-1])
		// Monotone trend: last value must dominate the first.
		rep.check(fmt.Sprintf("threshold behaviour (n=%d)", n), p[len(p)-1] > p[0],
			"P rises from %v (c=0.5) to %v (c=2.5)", p[0], p[len(p)-1])
	}
	// Sharpening with n: below threshold the larger instance should be
	// disconnected at least as often.
	small, large := probs[ns[0]][0], probs[ns[len(ns)-1]][0]
	rep.check("sub-threshold failures grow with n", large <= small+0.05,
		"P(connected|c=0.5): n=%d -> %v, n=%d -> %v", ns[0], small, ns[len(ns)-1], large)
	return rep, nil
}

// RunE6Routing regenerates Figure 5: greedy geographic routing hop counts
// vs n (the O(sqrt(n/log n)) claim inherited from [5]) and the raw greedy
// delivery rate.
func RunE6Routing(cfg Config) (*Report, error) {
	rep := &Report{ID: "E6", Title: "Figure 5 — greedy routing hops and delivery"}
	ns := []int{256, 512, 1024, 2048, 4096, 8192}
	routes := 400
	if cfg.Quick {
		ns = []int{256, 512, 1024, 2048}
		routes = 150
	}
	const c = 1.5
	tb := table.New("Greedy routing at c=1.5, "+fmtF(float64(routes))+" random pairs per n",
		"n", "mean hops", "p95 hops", "theory sqrt(n/log n)", "delivery (no recovery)", "recovered share")
	var xs, meanHops []float64
	minDelivery := 1.0
	for _, n := range ns {
		g, err := connectedGraph(n, c, cfg.seed())
		if err != nil {
			return nil, err
		}
		r := rng.New(cfg.seed() + uint64(n))
		var hops []float64
		delivered, recovered := 0, 0
		for i := 0; i < routes; i++ {
			src := int32(r.IntN(n))
			dst := int32(r.IntN(n))
			if src == dst {
				continue
			}
			raw := routing.GreedyToNode(g, src, dst, routing.RecoveryNone)
			if raw.Delivered {
				delivered++
			}
			rec := routing.GreedyToNode(g, src, dst, routing.RecoveryBFS)
			if rec.Recovered {
				recovered++
			}
			if rec.Delivered {
				hops = append(hops, float64(rec.Hops))
			}
		}
		sum := stats.Summarize(hops)
		delRate := float64(delivered) / float64(routes)
		if delRate < minDelivery {
			minDelivery = delRate
		}
		theory := math.Sqrt(float64(n) / math.Log(float64(n)))
		tb.AddRowf(n, sum.Mean, stats.Quantile(hops, 0.95), theory,
			delRate, float64(recovered)/float64(routes))
		xs = append(xs, float64(n))
		meanHops = append(meanHops, sum.Mean)
	}
	rep.addTable(tb)
	plot := &table.Plot{
		Title:  "Figure 5: mean greedy hops vs n (log-log)",
		XLabel: "n",
		YLabel: "hops",
		LogX:   true,
		LogY:   true,
	}
	plot.Add("mean hops", xs, meanHops)
	rep.addPlot(plot)
	exp, _, r2, err := stats.PowerLawFit(xs, meanHops)
	if err != nil {
		return nil, err
	}
	rep.check("hop growth ~ sqrt(n) up to log factors", exp > 0.3 && exp < 0.7,
		"fitted exponent %v (R2=%v), expected ~0.5", fmtF(exp), fmtF(r2))
	rep.check("greedy delivery rate high at c=1.5", minDelivery >= 0.9,
		"minimum raw greedy delivery rate %v across sizes", fmtF(minDelivery))
	return rep, nil
}

// RunE7Rejection regenerates Figure 6: total-variation distance of the
// long-range partner distribution from uniform, for first-contact
// sampling (no rejection), rejection sampling, and exact uniform node
// sampling.
func RunE7Rejection(cfg Config) (*Report, error) {
	rep := &Report{ID: "E7", Title: "Figure 6 — rejection-sampling uniformity"}
	ns := []int{512, 2048}
	samples := 120000
	if cfg.Quick {
		ns = []int{512}
		samples = 30000
	}
	const c = 1.5
	tb := table.New("TV distance to uniform over "+fmtF(float64(samples))+" samples",
		"n", "first-contact", "rejection (<=10 attempts)", "uniform-node", "mean attempts (rejection)")
	for _, n := range ns {
		g, err := connectedGraph(n, c, cfg.seed())
		if err != nil {
			return nil, err
		}
		measure := func(mode sim.Sampling, maxAttempts int) (tv float64, meanAttempts float64) {
			ts := gossip.NewTargetSampler(g, mode, maxAttempts)
			r := rng.New(cfg.seed() + 999)
			srcR := rng.New(cfg.seed() + 998)
			counts := make([]int, n)
			totalAttempts := 0
			for i := 0; i < samples; i++ {
				src := int32(srcR.IntN(n))
				target, _, attempts := ts.SampleFrom(src, r)
				counts[target]++
				totalAttempts += attempts
			}
			return stats.TVDistanceUniform(counts), float64(totalAttempts) / float64(samples)
		}
		firstTV, _ := measure(sim.SamplingRejection, 1)
		rejTV, attempts := measure(sim.SamplingRejection, 10)
		uniTV, _ := measure(sim.SamplingUniformNode, 1)
		tb.AddRowf(n, firstTV, rejTV, uniTV, attempts)
		rep.check(fmt.Sprintf("rejection improves uniformity (n=%d)", n), rejTV < firstTV,
			"TV: first-contact %v -> rejection %v (uniform-node reference %v)",
			fmtF(firstTV), fmtF(rejTV), fmtF(uniTV))
		rep.check(fmt.Sprintf("rejection overhead modest (n=%d)", n), attempts <= 4,
			"mean attempts per exchange %v", fmtF(attempts))
	}
	rep.addTable(tb)
	return rep, nil
}

// RunE8Occupancy regenerates Table 2: §3's Chernoff claim that at the
// first partition level every square's occupancy is within 10% of its
// expectation w.h.p. — an asymptotic statement whose trend the table
// traces.
func RunE8Occupancy(cfg Config) (*Report, error) {
	rep := &Report{ID: "E8", Title: "Table 2 — first-level occupancy concentration"}
	ns := []int{1024, 4096, 16384, 65536}
	trials := 60
	if cfg.Quick {
		ns = []int{1024, 4096}
		trials = 20
	}
	tb := table.New("max_i |#(sq_i)/E# - 1| at the first partition level, "+fmtF(float64(trials))+" trials",
		"n", "squares", "E# per square", "mean max-dev", "p95 max-dev", "P(max-dev < 1/10)")
	var meanDevs []float64
	for _, n := range ns {
		var devs []float64
		var nSquares int
		var expected float64
		for trial := 0; trial < trials; trial++ {
			pts := graph.UniformPoints(n, rng.New(cfg.seed()+uint64(trial)*131+uint64(n)))
			h, err := hier.Build(pts, hier.Config{MaxDepth: 1})
			if err != nil {
				return nil, err
			}
			root := h.Root()
			if root.IsLeaf() {
				return nil, fmt.Errorf("experiments: n=%d produced no first level", n)
			}
			counts := make([]float64, 0, len(root.Children))
			for _, cid := range root.Children {
				counts = append(counts, float64(len(h.Squares[cid].Members)))
			}
			nSquares = len(root.Children)
			expected = h.Squares[root.Children[0]].Expected
			devs = append(devs, stats.MaxAbsDeviation(counts, expected))
		}
		sum := stats.Summarize(devs)
		within := stats.Fraction(devs, func(v float64) bool { return v < 0.1 })
		tb.AddRowf(n, nSquares, expected, sum.Mean, stats.Quantile(devs, 0.95), within)
		meanDevs = append(meanDevs, sum.Mean)
	}
	rep.addTable(tb)
	rep.check("occupancy deviation shrinks with n", meanDevs[len(meanDevs)-1] < meanDevs[0],
		"mean max-dev falls from %v (n=%d) to %v (n=%d); the paper's <1/10 w.h.p. claim is asymptotic "+
			"(E# per square grows only like sqrt(n))",
		fmtF(meanDevs[0]), ns[0], fmtF(meanDevs[len(meanDevs)-1]), ns[len(ns)-1])
	rep.check("no square empty or doubled at the largest n", meanDevs[len(meanDevs)-1] < 1,
		"mean max-dev %v stays below 1", fmtF(meanDevs[len(meanDevs)-1]))
	return rep, nil
}

// RunE10Hierarchy regenerates Table 3: the hierarchy's structural shape
// (depth ℓ, branching schedule, leaf sizes) across four decades of n —
// the ℓ ~ log log n claim of §4.1. Structure only; no gossip is run.
func RunE10Hierarchy(cfg Config) (*Report, error) {
	rep := &Report{ID: "E10", Title: "Table 3 — hierarchy shape vs n"}
	ns := []int{256, 1024, 4096, 16384, 65536, 262144, 1048576}
	if cfg.Quick {
		ns = []int{256, 1024, 4096, 16384}
	}
	tb := table.New("Recursive partition shape (branching rule: nearest even square to sqrt(E#))",
		"n", "levels (ell)", "branching", "leaves", "E# per leaf", "mean leaf size", "rep collisions", "empty squares")
	prevEll := 0
	maxEll := 0
	for _, n := range ns {
		pts := graph.UniformPoints(n, rng.New(cfg.seed()+uint64(n)))
		h, err := hier.Build(pts, hier.Config{})
		if err != nil {
			return nil, err
		}
		st := h.ComputeStats()
		tb.AddRowf(n, st.Ell, fmt.Sprint(st.Branching), st.Leaves, st.LeafExpected,
			st.MeanLeafSize, st.RepCollisions, st.EmptySquares)
		if st.Ell < prevEll {
			rep.check("depth monotone in n", false, "ell fell from %d to %d at n=%d", prevEll, st.Ell, n)
		}
		prevEll = st.Ell
		if st.Ell > maxEll {
			maxEll = st.Ell
		}
	}
	rep.addTable(tb)
	rep.check("depth grows like log log n", maxEll <= 6,
		"ell stays at most %d across four decades of n (log log growth)", maxEll)
	// The branching rule itself.
	rule := hier.NearestEvenSquare(math.Sqrt(1048576))
	rep.check("branching matches the paper's rule at n=2^20", rule == 1024,
		"nearest even square to sqrt(2^20)=1024 is %d", rule)
	return rep, nil
}

func intHeaders(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("n=%d", n)
	}
	return out
}
