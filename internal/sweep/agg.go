package sweep

import (
	"sort"

	"geogossip/internal/stats"
)

// CellKey identifies one grid cell: the task coordinates minus the seed
// index. Aggregation averages the cell's seeds.
type CellKey struct {
	Algorithm  string  `json:"algorithm"`
	N          int     `json:"n"`
	LossRate   float64 `json:"loss_rate"`
	FaultModel string  `json:"fault_model,omitempty"`
	Transport  string  `json:"transport,omitempty"`
	Recover    bool    `json:"recover,omitempty"`
	Beta       float64 `json:"beta"`
	Sampling   string  `json:"sampling,omitempty"`
	Hierarchy  string  `json:"hierarchy,omitempty"`
}

// Dist summarizes one metric across a cell's seeds.
type Dist struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
}

func distOf(xs []float64) Dist {
	s := stats.Summarize(xs)
	return Dist{
		Mean: s.Mean,
		Std:  s.Std,
		Min:  s.Min,
		Max:  s.Max,
		P50:  stats.Quantile(xs, 0.5),
		P90:  stats.Quantile(xs, 0.9),
	}
}

// CellStats aggregates all seeds of one grid cell.
type CellStats struct {
	CellKey
	// Count is the number of per-seed results in the cell (errored tasks
	// excluded; see Errors).
	Count int `json:"count"`
	// ConvergedCount is how many of them reached the target error.
	ConvergedCount int `json:"converged"`
	// Errors counts tasks that failed outright (no connected instance,
	// engine error).
	Errors int `json:"errors,omitempty"`
	// Transmissions and FinalErr summarize the per-seed metrics.
	Transmissions Dist `json:"transmissions"`
	FinalErr      Dist `json:"final_err"`
	// SimSeconds summarizes simulated time to converge; present only for
	// cells whose tasks ran with a transport layer (a pointer so
	// transport-free aggregation output stays byte-identical to grids
	// produced before the axis existed).
	SimSeconds *Dist `json:"sim_seconds,omitempty"`
}

// ScalingFit is a fitted power law transmissions ≈ C·n^p across the cells
// of one algorithm/parameter line — the paper's headline quantity. The
// line's key is its cells' key with N zeroed: a fit spans network sizes.
type ScalingFit struct {
	CellKey
	// Points is the number of (n, mean transmissions) cells fitted.
	Points   int     `json:"points"`
	Exponent float64 `json:"exponent"`
	Constant float64 `json:"constant"`
	R2       float64 `json:"r2"`
}

// LossFit is a fitted power law transmissions ≈ C·x^q with
// x = 1/(1 − p) the retransmission factor of the cell's effective loss
// rate p — the cost-vs-loss scaling of one algorithm at one network
// size, fitted across the grid's loss axis (plain LossRates and the
// loss content of fault models alike: Bernoulli rate, Gilbert–Elliott
// stationary loss, jamming-field mean loss). An exponent near 1 means
// cost grows like the naive retransmission count; larger exponents
// expose protocols whose structure amplifies loss. The line's key is its
// cells' key with the medium axes (LossRate, FaultModel, Transport)
// zeroed: the medium's effective loss is the fitted variable.
type LossFit struct {
	CellKey
	// Points is the number of (retransmission factor, mean transmissions)
	// cells fitted.
	Points   int     `json:"points"`
	Exponent float64 `json:"exponent"`
	Constant float64 `json:"constant"`
	R2       float64 `json:"r2"`
}

// Summary is the aggregation of one sweep: per-cell statistics plus
// scaling-exponent fits across n and cost-vs-loss fits across the fault
// grid.
type Summary struct {
	Cells    []CellStats  `json:"cells"`
	Fits     []ScalingFit `json:"fits"`
	LossFits []LossFit    `json:"loss_fits,omitempty"`
	// UnconvergedCells counts the cells no fit includes because a run in
	// them missed the target error (see fitted).
	UnconvergedCells int `json:"unconverged_cells,omitempty"`
}

// fitted reports whether a cell enters the fits: it has runs, and every
// one of them reached the target error. A diverged run's transmissions
// are what it spent before a guard or the tick cap stopped it, not a
// cost to ε, and dropping only a cell's unconverged seeds would keep its
// lucky ones and bias the fit low.
func fitted(cs CellStats) bool { return cs.Count > 0 && cs.ConvergedCount == cs.Count }

// Aggregate groups per-task results into grid cells, summarizes each, and
// fits transmissions ~ C·n^p for every parameter line with at least two
// network sizes whose cells converged. Input order does not matter;
// output order is canonical (sorted by cell key), so aggregation of a
// sweep is as deterministic as the sweep itself.
func Aggregate(results []TaskResult) *Summary {
	type acc struct {
		tx, err   []float64
		simSec    []float64
		converged int
		errors    int
	}
	cells := make(map[CellKey]*acc)
	for _, r := range results {
		a := cells[r.Cell()]
		if a == nil {
			a = &acc{}
			cells[r.Cell()] = a
		}
		if r.Error != "" {
			a.errors++
			continue
		}
		a.tx = append(a.tx, float64(r.Transmissions))
		a.err = append(a.err, r.FinalErr)
		if r.Transport != "" {
			a.simSec = append(a.simSec, r.SimSeconds)
		}
		if r.Converged {
			a.converged++
		}
	}
	sum := &Summary{}
	for k, a := range cells {
		cs := CellStats{
			CellKey:        k,
			Count:          len(a.tx),
			ConvergedCount: a.converged,
			Errors:         a.errors,
		}
		if len(a.tx) > 0 {
			cs.Transmissions = distOf(a.tx)
			cs.FinalErr = distOf(a.err)
		}
		if len(a.simSec) > 0 {
			d := distOf(a.simSec)
			cs.SimSeconds = &d
		}
		sum.Cells = append(sum.Cells, cs)
	}
	sort.Slice(sum.Cells, func(i, j int) bool { return cellLess(sum.Cells[i].CellKey, sum.Cells[j].CellKey) })

	lines := make(map[CellKey][]CellStats)
	for _, cs := range sum.Cells {
		if fitted(cs) {
			lk := cs.CellKey
			lk.N = 0
			lines[lk] = append(lines[lk], cs)
		} else if cs.Count > 0 {
			sum.UnconvergedCells++
		}
	}
	for lk, lcells := range lines {
		var ns, txs []float64
		for _, cs := range lcells {
			if cs.Transmissions.Mean > 0 {
				ns = append(ns, float64(cs.N))
				txs = append(txs, cs.Transmissions.Mean)
			}
		}
		if len(ns) < 2 {
			continue
		}
		p, c, r2, err := stats.PowerLawFit(ns, txs)
		if err != nil {
			continue
		}
		sum.Fits = append(sum.Fits, ScalingFit{CellKey: lk, Points: len(ns), Exponent: p, Constant: c, R2: r2})
	}
	sort.Slice(sum.Fits, func(i, j int) bool { return cellLess(sum.Fits[i].CellKey, sum.Fits[j].CellKey) })
	sum.LossFits = lossFits(sum.Cells)
	return sum
}

// effectiveLoss resolves a cell's per-packet loss rate: the expected
// loss of the cell's composed medium (Bernoulli rate, GE stationary loss,
// field mean loss composed as independent events). Excluded from
// fitting: cells whose medium does not compose or loses everything, and
// cells with structural faults (cuts, churn) — their cost inflation is
// not a function of a loss rate and would only pollute the fit.
func effectiveLoss(k CellKey) (float64, bool) {
	spec, err := medium(k.LossRate, k.FaultModel, k.Transport)
	if err != nil || spec.HasCut() || spec.HasChurn() {
		return 0, false
	}
	for _, f := range spec.Fields {
		if f.Scheduled() && f.Period == 0 {
			// A one-shot window's active fraction depends on the run
			// length, not on any rate the fit could use as a coordinate.
			return 0, false
		}
		if f.Moving() {
			// MeanLoss clips the disk at its *initial* centre; a moving
			// jammer's long-run covered area differs, so the estimate is
			// not a usable fit coordinate either.
			return 0, false
		}
	}
	p := spec.ExpectedLossRate()
	if p < 0 || p >= 1 {
		return 0, false
	}
	return p, true
}

// lossFits fits transmissions ≈ C·(1/(1−p))^q per algorithm/size line
// across every converged cell whose effective loss differs — the
// cost-vs-loss scaling exponents of the fault grid. Lines with fewer
// than two distinct loss points produce no fit.
func lossFits(cells []CellStats) []LossFit {
	type pt struct{ x, tx float64 }
	lines := make(map[CellKey][]pt)
	for _, cs := range cells {
		if !fitted(cs) || cs.Transmissions.Mean <= 0 {
			continue
		}
		if cs.Transport != "" {
			// ARQ retransmissions change the cost-vs-loss relation itself
			// (cost reflects retries, not engine-level re-sends), so
			// transport cells would pollute the raw-loss fit.
			continue
		}
		p, ok := effectiveLoss(cs.CellKey)
		if !ok {
			continue
		}
		lk := cs.CellKey
		lk.LossRate, lk.FaultModel, lk.Transport = 0, "", ""
		lines[lk] = append(lines[lk], pt{x: 1 / (1 - p), tx: cs.Transmissions.Mean})
	}
	var out []LossFit
	for lk, pts := range lines {
		xs := make([]float64, 0, len(pts))
		txs := make([]float64, 0, len(pts))
		distinct := make(map[float64]bool)
		for _, p := range pts {
			xs = append(xs, p.x)
			txs = append(txs, p.tx)
			distinct[p.x] = true
		}
		if len(distinct) < 2 {
			continue
		}
		q, c, r2, err := stats.PowerLawFit(xs, txs)
		if err != nil {
			continue
		}
		out = append(out, LossFit{CellKey: lk, Points: len(xs), Exponent: q, Constant: c, R2: r2})
	}
	sort.Slice(out, func(i, j int) bool { return cellLess(out[i].CellKey, out[j].CellKey) })
	return out
}

func cellLess(a, b CellKey) bool {
	if a.Algorithm != b.Algorithm {
		return a.Algorithm < b.Algorithm
	}
	if a.N != b.N {
		return a.N < b.N
	}
	if a.LossRate != b.LossRate {
		return a.LossRate < b.LossRate
	}
	if a.FaultModel != b.FaultModel {
		return a.FaultModel < b.FaultModel
	}
	if a.Transport != b.Transport {
		return a.Transport < b.Transport
	}
	if a.Recover != b.Recover {
		return !a.Recover
	}
	if a.Beta != b.Beta {
		return a.Beta < b.Beta
	}
	if a.Sampling != b.Sampling {
		return a.Sampling < b.Sampling
	}
	return a.Hierarchy < b.Hierarchy
}
