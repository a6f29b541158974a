package experiments

import (
	"fmt"
	"math"

	"geogossip/internal/engine"
	"geogossip/internal/geo"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/stats"
	"geogossip/internal/table"
)

// curveXY extracts a (transmissions, error) series from a run for
// plotting, down-sampled to a plottable size.
func curveXY(res *metrics.Result) (xs, ys []float64) {
	c := res.Curve.Downsample(120)
	for _, s := range c.Samples {
		xs = append(xs, float64(s.Transmissions))
		ys = append(ys, s.Err)
	}
	return xs, ys
}

// e1Target is the relative accuracy used by the head-to-head scaling
// comparison.
const e1Target = 1e-2

// e1Field returns the low-frequency "worst-case" initial field (value =
// 10·x + sin(7y) at each sensor's position): global information must
// physically cross the square, which is the regime all three cost bounds
// address. An iid field lets fast local mixing do most of the work and
// understates every exponent.
func e1Field(g interface {
	N() int
	Point(int32) geo.Point
}) []float64 {
	x := make([]float64, g.N())
	for i := int32(0); int(i) < g.N(); i++ {
		p := g.Point(i)
		x[i] = 10*p.X + math.Sin(7*p.Y)
	}
	return x
}

// RunE1Scaling regenerates Table 1, the paper's headline comparison:
// transmissions to reach a fixed relative accuracy for nearest-neighbour
// gossip (Õ(n²)), geographic gossip (Õ(n^1.5)) and the hierarchical
// affine algorithm (n^{1+o(1)} = n·exp(O(log log n)²)).
//
// What is honestly checkable at laptop scale (see EXPERIMENTS.md):
// boyd's ~2 and geographic's ~1.5 exponents appear directly. The affine
// algorithm's n^{o(1)} factor is exp(O(log log n)²) — numerically large
// and *slowly* varying, so over any simulable range the overall fitted
// slope conflates the linear core with discrete polylog jumps at the
// ℓ = Θ(log log n) hierarchy-depth transitions. The reproduction
// therefore (a) fits within fixed-depth classes, where the ~1 slope is
// visible, and (b) fits the paper's own cost form n·exp(c·(ln ln n)²)
// across all points.
func RunE1Scaling(cfg Config) (*Report, error) {
	rep := &Report{ID: "E1", Title: "Table 1 — transmission scaling of the three algorithms"}
	// No n beyond 8192: at n=16384 the branching schedule jumps to
	// (144, 16) and the round product K₀·K₁ grows by another ~50x — the
	// n^{o(1)} polylog factor made concrete. The deepest depth class
	// keeps >= 3 points without it.
	ns := []int{512, 1024, 2048, 4096, 8192}
	seeds := 3
	if cfg.Quick {
		ns = []int{256, 512, 1024}
		seeds = 1
	}
	// The three engines run from the engine table at its defaults; the
	// i-th runs on seed + 100·(i+1).
	algos := []string{"boyd", "geographic", "affine"}
	var engines []engine.Engine
	for _, name := range []string{engine.Boyd, engine.Geographic, engine.Affine} {
		e, _ := engine.Lookup(name)
		engines = append(engines, e)
	}
	cost := map[string][]float64{}
	var ells []int
	var farExchanges []float64
	tb := table.New(fmt.Sprintf("Transmissions to relative error %.0e on the worst-case smooth field (geometric mean over %d seeds)", e1Target, seeds),
		"n", "hierarchy ell", "boyd", "geographic", "affine", "affine far-exchanges")
	cfgE := engine.Config{Stop: sim.StopRule{TargetErr: e1Target, MaxTicks: 400_000_000}}
	for _, n := range ns {
		perAlgo := map[string][]float64{}
		farProduct := 1.0 // of the seeds' far-exchange counts
		var ell int
		for s := 0; s < seeds; s++ {
			seed := cfg.seed() + uint64(s)*7907
			g, err := connectedGraph(n, 1.5, seed)
			if err != nil {
				return nil, err
			}
			h, err := hier.Build(g.Points(), hier.Config{})
			if err != nil {
				return nil, err
			}
			x0 := e1Field(g)
			for i, e := range engines {
				res, err := e.Run(g, h, append([]float64(nil), x0...), cfgE, rng.New(seed+100*uint64(i+1)))
				if err != nil {
					return nil, err
				}
				if !res.Converged {
					return nil, fmt.Errorf("E1: %s n=%d seed=%d did not converge", e.Name, n, seed)
				}
				perAlgo[algos[i]] = append(perAlgo[algos[i]], float64(res.Transmissions))
				if e.Hierarchical {
					farProduct *= float64(res.FarExchanges)
				}
			}
			ell = h.Ell
		}
		// The geometric mean over the seeds, like every other column; as
		// Pow(x, 1) is x, a single seed reads its own count exactly.
		farEx := math.Pow(farProduct, 1/float64(seeds))
		ells = append(ells, ell)
		farExchanges = append(farExchanges, farEx)
		row := []string{fmtF(float64(n)), fmtF(float64(ell))}
		for _, a := range algos {
			gm := stats.GeometricMean(perAlgo[a])
			cost[a] = append(cost[a], gm)
			row = append(row, fmtF(gm))
		}
		row = append(row, fmtF(farEx))
		tb.AddRow(row...)
	}
	rep.addTable(tb)

	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	fit := map[string]float64{}
	fitTable := table.New("Fitted power laws over the full range (transmissions ~ C·n^p)",
		"algorithm", "exponent p", "constant C", "R2")
	for _, a := range algos {
		p, c, r2, err := stats.PowerLawFit(xs, cost[a])
		if err != nil {
			return nil, err
		}
		fit[a] = p
		fitTable.AddRowf(a, p, c, r2)
	}
	rep.addTable(fitTable)

	// Within-depth fits for the affine algorithm: the linear core of
	// n^{1+o(1)} without the depth-transition jumps.
	depthTable := table.New("Affine within-depth power laws (fixed ell)", "ell", "points", "exponent", "far-exchange exponent")
	type depthFit struct {
		points  int
		slope   float64
		farFit  float64
		present bool
	}
	deepest := depthFit{}
	for ell := 1; ell <= 8; ell++ {
		var dxs, dys, dfar []float64
		for i, n := range ns {
			if ells[i] == ell {
				dxs = append(dxs, float64(n))
				dys = append(dys, cost["affine"][i])
				dfar = append(dfar, farExchanges[i])
			}
		}
		if len(dxs) < 2 {
			continue
		}
		p, _, _, err := stats.PowerLawFit(dxs, dys)
		if err != nil {
			return nil, err
		}
		farP := math.NaN()
		if dfar[0] > 0 {
			if fp, _, _, err := stats.PowerLawFit(dxs, dfar); err == nil {
				farP = fp
			}
		}
		depthTable.AddRowf(ell, len(dxs), p, farP)
		deepest = depthFit{points: len(dxs), slope: p, farFit: farP, present: true}
	}
	rep.addTable(depthTable)

	// The paper's own cost form: tx = C·n·exp(c·(ln ln n)²).
	var uxs, vys []float64
	for i, n := range ns {
		u := math.Log(math.Log(float64(n)))
		uxs = append(uxs, u*u)
		vys = append(vys, math.Log(cost["affine"][i]/float64(n)))
	}
	modelFit, err := stats.OLS(uxs, vys)
	if err != nil {
		return nil, err
	}
	crossover := e1Crossover(modelFit, cost["geographic"], xs)

	plot := &table.Plot{
		Title:  "Table 1 as a figure: transmissions vs n (log-log)",
		XLabel: "n",
		YLabel: "transmissions",
		LogX:   true,
		LogY:   true,
	}
	for _, a := range algos {
		plot.Add(a, xs, cost[a])
	}
	rep.addPlot(plot)

	rep.check("boyd near quadratic", fit["boyd"] > 1.6 && fit["boyd"] < 2.4,
		"fitted exponent %v (paper: ~2 up to polylogs)", fmtF(fit["boyd"]))
	rep.check("geographic near n^1.5", fit["geographic"] > 1.15 && fit["geographic"] < 1.8,
		"fitted exponent %v (paper: ~1.5 up to polylogs)", fmtF(fit["geographic"]))
	rep.check("geographic beats boyd on exponent", fit["geographic"] < fit["boyd"],
		"geographic %v < boyd %v (the sqrt(n) speedup of [5])", fmtF(fit["geographic"]), fmtF(fit["boyd"]))
	if deepest.present {
		lo, hi := 0.5, 1.7
		if deepest.points >= 3 {
			lo, hi = 0.7, 1.45
		}
		rep.check("affine near-linear within fixed hierarchy depth", deepest.slope > lo && deepest.slope < hi,
			"within the deepest depth class (%d points) the fitted exponent is %v — the linear core of "+
				"n^{1+o(1)}; the overall fit %v conflates it with discrete polylog jumps at depth transitions",
			deepest.points, fmtF(deepest.slope), fmtF(fit["affine"]))
		if deepest.points >= 3 && !math.IsNaN(deepest.farFit) {
			rep.check("affine long-range rounds sublinear within fixed depth", deepest.farFit < 1,
				"far-exchange count exponent %v within the deepest depth class (Lemma 1's O(m·log m) rounds)",
				fmtF(deepest.farFit))
		}
	}
	rep.check("affine cost consistent with the paper's n·exp(c·(ln ln n)²) form", modelFit.Slope > 0,
		"fitted c=%v (R2=%v); extrapolated crossover vs the fitted geographic power law: %s — "+
			"the o(1) term decays too slowly for the asymptotic ordering to appear at simulable n",
		fmtF(modelFit.Slope), fmtF(modelFit.R2), crossover)
	return rep, nil
}

// e1Crossover numerically extrapolates where the fitted affine model
// n·exp(intercept + slope·(ln ln n)²) would drop below the fitted
// geographic power law, scanning up to n = 1e30.
func e1Crossover(model stats.Fit, geoCost, xs []float64) string {
	geoP, geoC, _, err := stats.PowerLawFit(xs, geoCost)
	if err != nil {
		return "unavailable"
	}
	for exp10 := 3.0; exp10 <= 30; exp10 += 0.25 {
		n := math.Pow(10, exp10)
		u := math.Log(math.Log(n))
		affine := math.Log(n) + model.Intercept + model.Slope*u*u
		geo := math.Log(geoC) + geoP*math.Log(n)
		if affine < geo {
			return fmt.Sprintf("n ~ 1e%.0f", exp10)
		}
	}
	return "none below n=1e30 with these fitted constants"
}

// RunE9EpsScaling regenerates Figure 7: the affine algorithm's
// transmission count as the target accuracy ε shrinks — the paper's
// n·exp(O(log log n · log log(n/ε))) dependence predicts polylog(1/ε)
// growth (degree ≤ ℓ).
func RunE9EpsScaling(cfg Config) (*Report, error) {
	rep := &Report{ID: "E9", Title: "Figure 7 — transmissions vs target accuracy"}
	n := 4096
	if cfg.Quick {
		n = 1024
	}
	epss := []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
	g, err := connectedGraph(n, 1.5, cfg.seed())
	if err != nil {
		return nil, err
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		return nil, err
	}
	x0 := gaussianValues(n, cfg.seed()+13)
	tb := table.New(fmt.Sprintf("Affine-hierarchical cost vs target accuracy (n=%d, ell=%d)", n, h.Ell),
		"eps", "transmissions", "far exchanges", "converged")
	var lx, ly []float64
	prev := uint64(0)
	monotone := true
	affine, _ := engine.Lookup(engine.Affine)
	for _, eps := range epss {
		x := append([]float64(nil), x0...)
		res, err := affine.Run(g, h, x, engine.Config{Stop: sim.StopRule{TargetErr: eps}}, rng.New(cfg.seed()+77))
		if err != nil {
			return nil, err
		}
		tb.AddRowf(eps, res.Transmissions, res.FarExchanges, res.Converged)
		if res.Transmissions < prev {
			monotone = false
		}
		prev = res.Transmissions
		lx = append(lx, math.Log(1/eps))
		ly = append(ly, float64(res.Transmissions))
	}
	rep.addTable(tb)
	plot := &table.Plot{
		Title:  "Figure 7: transmissions vs ln(1/eps) (log-log)",
		XLabel: "ln(1/eps)",
		YLabel: "transmissions",
		LogX:   true,
		LogY:   true,
	}
	plot.Add("affine", lx, ly)
	rep.addPlot(plot)
	p, _, r2, err := stats.PowerLawFit(lx, ly)
	if err != nil {
		return nil, err
	}
	rep.check("cost grows polylogarithmically in 1/eps", p < float64(h.Ell)+1.5,
		"transmissions ~ ln(1/eps)^%v (R2=%v); polynomial degree bounded by the ell=%d level count",
		fmtF(p), fmtF(r2), h.Ell)
	rep.check("cost monotone in accuracy", monotone, "transmissions nondecreasing as eps shrinks")
	return rep, nil
}

// RunE11Stability regenerates Figure 8: a sweep of the affine multiplier
// β (update coefficient β·E#). The analysis needs the induced square-sum
// coefficients in (1/3, 1/2) — β = 2/5 centres the band; small β slows
// convergence, β ≳ 1 leaves the contractive regime entirely.
func RunE11Stability(cfg Config) (*Report, error) {
	rep := &Report{ID: "E11", Title: "Figure 8 — affine-coefficient stability sweep"}
	n := 1024
	if cfg.Quick {
		n = 512
	}
	betas := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0, 1.2}
	g, err := connectedGraph(n, 1.5, cfg.seed())
	if err != nil {
		return nil, err
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		return nil, err
	}
	x0 := gaussianValues(n, cfg.seed()+13)
	tb := table.New(fmt.Sprintf("Affine multiplier sweep (n=%d, eps=1e-3, paper value beta=0.4)", n),
		"beta", "converged", "far exchanges", "transmissions", "incomplete squares", "final err")
	var okBetas []float64
	var bxs, brounds []float64
	bestBeta, bestRounds := 0.0, math.Inf(1)
	affine, _ := engine.Lookup(engine.Affine)
	for _, beta := range betas {
		x := append([]float64(nil), x0...)
		res, err := affine.Run(g, h, x, engine.Config{Stop: sim.StopRule{TargetErr: 1e-3}, Beta: beta}, rng.New(cfg.seed()+88))
		if err != nil {
			return nil, err
		}
		tb.AddRowf(beta, res.Converged, res.FarExchanges, res.Transmissions, res.IncompleteSquares, res.FinalErr)
		if res.Converged && res.IncompleteSquares == 0 {
			okBetas = append(okBetas, beta)
			if float64(res.FarExchanges) < bestRounds {
				bestRounds = float64(res.FarExchanges)
				bestBeta = beta
			}
		}
		bxs = append(bxs, beta)
		brounds = append(brounds, float64(res.FarExchanges))
	}
	rep.addTable(tb)
	plot := &table.Plot{
		Title:  "Figure 8: far exchanges vs beta (log y)",
		XLabel: "beta",
		YLabel: "far exchanges",
		LogY:   true,
	}
	plot.Add("far exchanges", bxs, brounds)
	rep.addPlot(plot)
	inBand := func(b float64) bool { return b >= 0.3 && b <= 0.6 }
	bandOK := true
	for _, b := range betas {
		if inBand(b) && !containsF(okBetas, b) {
			bandOK = false
		}
	}
	rep.check("paper's band converges cleanly", bandOK,
		"all beta in [0.3, 0.6] converge without incomplete squares; clean betas: %v", okBetas)
	rep.check("extreme beta degrades", !containsF(okBetas, 1.2),
		"beta=1.2 (alpha ~> 1) fails to converge cleanly")
	rep.check("optimum near the paper's 2/5", bestBeta >= 0.3 && bestBeta <= 0.7,
		"fewest far exchanges at beta=%v", fmtF(bestBeta))
	return rep, nil
}

func containsF(xs []float64, v float64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// RunE12Ablation regenerates Table 4: the two design choices —
// hierarchy (multi-level vs flat single-level partition) and affine vs
// convex long-range updates — ablated independently.
//
// The deep hierarchy is forced to ℓ=3 via a small leaf target so the
// shapes genuinely differ at this n. The convex ablation runs only in
// the flat shape: with convex updates every square-sum exchange moves
// only O(1/E#) of a square's mass, so a deep hierarchy multiplies the
// (already ~15x larger) round count by full subtree re-averagings and
// the cell costs billions of transmissions — the observation itself IS
// the ablation result.
func RunE12Ablation(cfg Config) (*Report, error) {
	rep := &Report{ID: "E12", Title: "Table 4 — hierarchy/affine ablation"}
	const n = 1024
	const eps = 1e-2
	g, err := connectedGraph(n, 1.5, cfg.seed())
	if err != nil {
		return nil, err
	}
	hDeep, err := hier.Build(g.Points(), hier.Config{LeafTarget: 8})
	if err != nil {
		return nil, err
	}
	hFlat, err := hier.Build(g.Points(), hier.Config{MaxDepth: 1})
	if err != nil {
		return nil, err
	}
	if hDeep.Ell <= hFlat.Ell {
		return nil, fmt.Errorf("E12: deep hierarchy (ell=%d) not deeper than flat (ell=%d)", hDeep.Ell, hFlat.Ell)
	}
	x0 := gaussianValues(n, cfg.seed()+13)
	type variant struct {
		name   string
		h      *hier.Hierarchy
		convex bool
	}
	variants := []variant{
		{"deep+affine (ell=3)", hDeep, false},
		{"flat+affine (ell=2)", hFlat, false},
		{"flat+convex (ell=2)", hFlat, true},
	}
	tb := table.New(fmt.Sprintf("Ablation at n=%d, eps=%.0e", n, eps),
		"variant", "converged", "far exchanges", "transmissions", "final err")
	results := map[string]*metrics.Result{}
	affine, _ := engine.Lookup(engine.Affine)
	for _, v := range variants {
		x := append([]float64(nil), x0...)
		res, err := affine.Run(g, v.h, x, engine.Config{
			Stop:   sim.StopRule{TargetErr: eps},
			Convex: v.convex,
		}, rng.New(cfg.seed()+99))
		if err != nil {
			return nil, err
		}
		results[v.name] = res
		tb.AddRowf(v.name, res.Converged, res.FarExchanges, res.Transmissions, res.FinalErr)
	}
	rep.addTable(tb)
	affFlat := results["flat+affine (ell=2)"]
	affDeep := results["deep+affine (ell=3)"]
	convFlat := results["flat+convex (ell=2)"]
	rep.check("affine needs fewer long-range rounds than convex",
		affFlat.FarExchanges < convFlat.FarExchanges,
		"far exchanges at the same shape: affine %d vs convex %d — the paper's Omega(sqrt(n)) "+
			"coefficients move whole square sums per exchange",
		affFlat.FarExchanges, convFlat.FarExchanges)
	rep.check("affine variants converge at both depths", affDeep.Converged && affFlat.Converged,
		"deep err %v (tx %d), flat err %v (tx %d)",
		fmtF(affDeep.FinalErr), affDeep.Transmissions, fmtF(affFlat.FinalErr), affFlat.Transmissions)
	rep.check("extra depth costs polylog factors at laptop n", affDeep.Transmissions > affFlat.Transmissions,
		"deep %d vs flat %d transmissions — the hierarchy's payoff is asymptotic (see E1, EXPERIMENTS.md)",
		affDeep.Transmissions, affFlat.Transmissions)
	return rep, nil
}

// RunE13Control regenerates Table 5: the asynchronous protocol's traffic
// breakdown (§6's claim that control traffic is affordable and that
// throttling serializes rounds).
func RunE13Control(cfg Config) (*Report, error) {
	rep := &Report{ID: "E13", Title: "Table 5 — async control traffic and throttling"}
	n := 1024
	maxTicks := uint64(60_000_000)
	if cfg.Quick {
		n = 512
		maxTicks = 25_000_000
	}
	g, err := connectedGraph(n, 1.5, cfg.seed())
	if err != nil {
		return nil, err
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		return nil, err
	}
	x0 := gaussianValues(n, cfg.seed()+13)
	throttles := []float64{2, 8, 32}
	tb := table.New(fmt.Sprintf("Async protocol at n=%d (target err 2e-2)", n),
		"throttle", "converged", "ticks", "near", "far", "control", "flood", "overlap fars", "overlap rate")
	overlapRates := make([]float64, 0, len(throttles))
	convergedHigh := false
	var shareHigh float64
	async, _ := engine.Lookup(engine.Async)
	for _, th := range throttles {
		x := append([]float64(nil), x0...)
		res, err := async.Run(g, h, x, engine.Config{
			Stop:     sim.StopRule{TargetErr: 2e-2, MaxTicks: maxTicks},
			Throttle: th,
		}, rng.New(cfg.seed()+111))
		if err != nil {
			return nil, err
		}
		bd := res.TransmissionsByCategory
		rate := 0.0
		if res.FarExchanges > 0 {
			rate = float64(res.OverlapFars) / float64(res.FarExchanges)
		}
		overlapRates = append(overlapRates, rate)
		tb.AddRowf(th, res.Converged, res.Ticks, bd["near"], bd["far"], bd["control"], bd["flood"],
			res.OverlapFars, rate)
		if th == throttles[len(throttles)-1] {
			convergedHigh = res.Converged
			total := float64(res.Transmissions)
			if total > 0 {
				shareHigh = float64(bd["control"]+bd["flood"]) / total
			}
		}
	}
	rep.addTable(tb)
	rep.check("higher throttle reduces round overlap",
		overlapRates[len(overlapRates)-1] < overlapRates[0],
		"overlap rate %v at throttle %v vs %v at throttle %v — the knob behind the paper's n^{-a} damping",
		fmtF(overlapRates[len(overlapRates)-1]), fmtF(throttles[len(throttles)-1]),
		fmtF(overlapRates[0]), fmtF(throttles[0]))
	rep.check("async protocol converges once rounds are serialized", convergedHigh,
		"throttle %v reaches the 2e-2 target within %d ticks; low throttles stall at a Lemma 2-style "+
			"noise floor, which is why the paper scales the damping with n^a",
		fmtF(throttles[len(throttles)-1]), maxTicks)
	rep.check("control traffic is not dominant", shareHigh < 0.6,
		"activation/deactivation (control+flood) share of transmissions: %v", fmtF(shareHigh))
	return rep, nil
}

// RunE14Convergence regenerates Figure 9: relative error vs transmissions
// for the three algorithms on the same instance — the standard gossip
// "money plot".
func RunE14Convergence(cfg Config) (*Report, error) {
	rep := &Report{ID: "E14", Title: "Figure 9 — convergence trajectories at fixed n"}
	n := 2048
	if cfg.Quick {
		n = 512
	}
	const target = 1e-2
	g, err := connectedGraph(n, 1.5, cfg.seed())
	if err != nil {
		return nil, err
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		return nil, err
	}
	x0 := gaussianValues(n, cfg.seed()+13)
	stop := sim.StopRule{TargetErr: target, MaxTicks: 300_000_000}

	var runs [3]*metrics.Result
	for i, name := range []string{engine.Boyd, engine.Geographic, engine.Affine} {
		c := engine.Config{Stop: stop}
		if name == engine.Affine {
			// Sampled every 4 far exchanges, so its curve has points to plot.
			c.RecordEvery = 4
		}
		e, _ := engine.Lookup(name)
		x := append([]float64(nil), x0...)
		if runs[i], err = e.Run(g, h, x, c, rng.New(cfg.seed()+100*uint64(i+1))); err != nil {
			return nil, err
		}
	}
	rb, rg, ra := runs[0], runs[1], runs[2]

	plot := &table.Plot{
		Title:  fmt.Sprintf("Figure 9: relative error vs transmissions, n=%d (log-log)", n),
		XLabel: "transmissions",
		YLabel: "relative l2 error",
		LogX:   true,
		LogY:   true,
		Height: 24,
	}
	tb := table.New(fmt.Sprintf("Transmissions to relative error %.0e at n=%d", target, n),
		"algorithm", "transmissions", "converged")
	for _, res := range runs {
		tb.AddRowf(res.Algorithm, res.Transmissions, res.Converged)
		xs, ys := curveXY(res)
		plot.Add(res.Algorithm, xs, ys)
	}
	rep.addTable(tb)
	rep.addPlot(plot)
	rep.check("all three algorithms reach the target", rb.Converged && rg.Converged && ra.Converged,
		"boyd %d, geographic %d, affine %d transmissions",
		rb.Transmissions, rg.Transmissions, ra.Transmissions)
	rep.check("curves recorded", rb.Curve.Len() > 2 && rg.Curve.Len() > 2 && ra.Curve.Len() > 2,
		"samples: boyd %d, geographic %d, affine %d", rb.Curve.Len(), rg.Curve.Len(), ra.Curve.Len())
	return rep, nil
}
