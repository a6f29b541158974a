package experiments

import (
	"fmt"

	"geogossip/internal/engine"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/table"
)

// RunE15EpsSchedule regenerates Figure 10: an ablation of the per-level
// accuracy schedule ε_{r+1} = ε_r/(κ·sqrt(E#)). The affine update
// amplifies residual intra-square error by ≈ β·sqrt(E#) (Lemma 2's noise
// term), so κ below ~1 leaves an error floor above the target, while
// large κ buys accuracy that is never needed — the practical content of
// the paper's aggressive ε_{r+1} = ε_r/(25·n^{7/2+a}) schedule.
func RunE15EpsSchedule(cfg Config) (*Report, error) {
	rep := &Report{ID: "E15", Title: "Figure 10 — per-level accuracy schedule ablation"}
	// n is kept at 1024 in Quick mode too: the sweep is cheap and the
	// noise floor only clears the target reliably from this size up.
	const n = 1024
	const eps = 1e-3
	kappas := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8, 16}
	g, err := connectedGraph(n, 1.5, cfg.seed())
	if err != nil {
		return nil, err
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		return nil, err
	}
	x0 := e1Field(g)
	tb := table.New(fmt.Sprintf("Accuracy-schedule sweep at n=%d, eps=%.0e (default kappa=4)", n, eps),
		"kappa", "converged", "final err", "transmissions", "incomplete squares")
	var ks, txs []float64
	smallKappaDegrades := false
	largeKappaConverges := true
	var cheapClean float64
	affine, _ := engine.Lookup(engine.Affine)
	for _, k := range kappas {
		x := append([]float64(nil), x0...)
		res, err := affine.Run(g, h, x, engine.Config{
			Stop:           sim.StopRule{TargetErr: eps},
			EpsDecayFactor: k,
		}, rng.New(cfg.seed()+55))
		if err != nil {
			return nil, err
		}
		tb.AddRowf(k, res.Converged, res.FinalErr, res.Transmissions, res.IncompleteSquares)
		ks = append(ks, k)
		txs = append(txs, float64(res.Transmissions))
		clean := res.Converged && res.IncompleteSquares == 0
		if k <= 0.5 && !clean {
			smallKappaDegrades = true
		}
		if k >= 2 && !res.Converged {
			largeKappaConverges = false
		}
		if k >= 2 && clean && (cheapClean == 0 || float64(res.Transmissions) < cheapClean) {
			cheapClean = float64(res.Transmissions)
		}
	}
	rep.addTable(tb)
	plot := &table.Plot{
		Title:  "Figure 10: transmissions vs schedule factor kappa (log-log)",
		XLabel: "kappa",
		YLabel: "transmissions",
		LogX:   true,
		LogY:   true,
	}
	plot.Add("transmissions", ks, txs)
	rep.addPlot(plot)
	rep.check("weak schedules hit the Lemma 2 noise floor", smallKappaDegrades,
		"kappa <= 0.5 fails to converge cleanly: imperfect child averaging is amplified by the "+
			"beta*sqrt(E#) affine coefficient")
	rep.check("schedules at kappa >= 2 converge", largeKappaConverges,
		"every kappa >= 2 reaches the %.0e target", eps)
	rep.check("stronger schedules cost more", txs[len(txs)-1] > cheapClean,
		"transmissions at kappa=%v: %v vs cheapest clean schedule %v — accuracy beyond the floor is pure overhead",
		fmtF(kappas[len(kappas)-1]), fmtF(txs[len(txs)-1]), fmtF(cheapClean))
	return rep, nil
}
