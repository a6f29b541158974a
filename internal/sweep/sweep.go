// Package sweep is the concurrent multi-scenario experiment orchestrator:
// it expands a declarative parameter grid (algorithm × n × seed × loss
// rate × fault model × recovery × beta × sampling mode × hierarchy
// shape) into independent tasks, executes them on an Executor — one
// shared network cache, and one reusable engine run state per slot,
// threaded through every task the slot runs — and streams per-task
// results to a pluggable sink. The Executor is the only code that runs a
// task: Run drives one through a grid, the distributed worker
// (internal/sweep/dist) drives one through its leases, and both share
// the package's one goroutine fan-out with Map.
//
// Determinism is the design invariant. Every task derives its own seeds
// from the spec's base seed and the task's semantic coordinates (never
// from scheduling state), so a grid produces bit-identical per-task
// results whether it runs on one worker or sixty-four, and regardless of
// completion order. Sinks observe results in completion order; consumers
// that need a canonical order sort by TaskID.
package sweep

import (
	"fmt"
	"math"

	"geogossip/internal/channel"
	"geogossip/internal/engine"
	"geogossip/internal/rng"
)

// Algorithm names accepted by Spec.Algorithms: the engine table's names.
const (
	AlgoBoyd       = engine.Boyd
	AlgoGeographic = engine.Geographic
	AlgoPushSum    = engine.PushSum
	AlgoAffine     = engine.Affine
	AlgoAsync      = engine.Async
)

// Sampling mode names accepted by Spec.Samplings.
const (
	SamplingRejection = "rejection"
	SamplingUniform   = "uniform"
)

// Hierarchy shape names accepted by Spec.Hierarchies.
const (
	HierarchyDeep = "deep"
	HierarchyFlat = "flat"
)

// Field names accepted by Spec.Field.
const (
	// FieldSmooth is the worst-case low-frequency field 10·x + sin(7·y):
	// global information must cross the square, the regime every cost
	// bound addresses.
	FieldSmooth = "smooth"
	// FieldGaussian draws iid standard normal measurements from a seed
	// derived from (base seed, n, seed index) — identical across the
	// algorithms of one grid cell.
	FieldGaussian = "gaussian"
)

// Spec is a declarative parameter grid. Zero-valued axes default to a
// single neutral point, so callers only write the axes they sweep.
type Spec struct {
	// Algorithms lists protocol names (AlgoBoyd, AlgoGeographic,
	// AlgoPushSum, AlgoAffine, AlgoAsync). Required.
	Algorithms []string
	// Ns lists network sizes. Required.
	Ns []int
	// Seeds is the number of independent placements/runs per grid cell
	// (seed indices 0..Seeds-1). Zero selects 1.
	Seeds int
	// BaseSeed roots all per-task seed derivation. Zero selects 1.
	BaseSeed uint64
	// LossRates lists packet-loss probabilities. Empty selects {0}.
	LossRates []float64
	// FaultModels lists radio fault models in channel.Parse form
	// ("perfect", "bernoulli:P", "ge:PGB/PBG/EG/EB", the spatial forms
	// "jam:...", "mjam:...", "jampoly:...", "cut:...", and the churn
	// forms "churn:UP/DOWN", "repchurn:UP/DOWN", "hubchurn:UP/DOWN/K",
	// composable via "+"). Empty selects {""} (the perfect medium, or
	// the LossRates axis when that is swept). Entries carrying their own
	// loss model cannot be crossed with non-zero LossRates. Rep-targeted
	// entries only run on algorithms with a hierarchy; others record a
	// per-task error.
	FaultModels []string
	// Transports lists transport-reliability fragments in channel.Parse
	// form, composed onto every fault model of the grid: delay models
	// ("delay:fixed/D", "delay:uniform/LO/HI", "delay:exp/MEAN"), the
	// reorder/dup decorators, and ARQ ("arq:RETRIES/TIMEOUT/BACKOFF"),
	// composable via "+". Entries must be transport-only (no loss, field,
	// cut or churn components — those belong on the FaultModels axis), and
	// fault models carrying their own transport components cannot be
	// crossed with a non-empty transport axis. Empty selects {""} (no
	// transport layer), and ""-transport tasks keep the exact run seeds of
	// pre-axis grids, so prior sweep output stays bit-identical and
	// resumable.
	Transports []string
	// Recovery lists the engine-recovery settings to cross with the rest
	// of the grid (typically {false, true} against a churn fault axis):
	// true switches on representative re-election for the affine
	// algorithms and restart-from-neighbor resync for boyd/geographic
	// (push-sum needs neither — its mass bookkeeping already survives
	// churn). Empty selects {false}, and false tasks keep the exact run
	// seeds of pre-axis grids, so prior sweep output stays bit-identical
	// and resumable.
	Recovery []bool
	// Betas lists affine multipliers (only the affine algorithms read
	// them; 0 means the engine default 2/5). Empty selects {0}.
	Betas []float64
	// Samplings lists partner-sampling modes for geographic gossip
	// (SamplingRejection, SamplingUniform). Empty selects rejection.
	Samplings []string
	// Hierarchies lists hierarchy shapes for the affine algorithms
	// (HierarchyDeep, HierarchyFlat). Empty selects deep.
	Hierarchies []string
	// TargetErr is the relative ℓ₂ accuracy every run stops at. Zero
	// selects 1e-2.
	TargetErr float64
	// MaxTicks caps the simulated clock of the tick-driven engines
	// (boyd, geographic, affine-async). Zero selects 200,000,000. The
	// round-structured recursive engine has no clock; its runs are
	// bounded by its per-square round budgets.
	MaxTicks uint64
	// RadiusMultiplier is c in r = c·sqrt(log n / n). Zero selects 1.5.
	RadiusMultiplier float64
	// Field selects the initial measurement field (FieldSmooth or
	// FieldGaussian). Empty selects FieldSmooth.
	Field string
	// AsyncThrottle overrides the async engine's round-serialization
	// factor (AsyncOptions.Throttle) for affine-async tasks; zero keeps
	// the engine default. The paper scales the analogous factor as n^a:
	// large-n async sweeps must raise it (together with AsyncLeafTicks)
	// so the protocol's high-coefficient exchanges do not fire over
	// still-averaging subtrees.
	AsyncThrottle float64
	// AsyncLeafTicks overrides a leaf representative's round budget in
	// its own clock ticks (AsyncOptions.LeafTicks); zero keeps the
	// engine default. The default assumes Θ(log n)-occupancy leaves;
	// the large leaves of flat hierarchies at big n need budgets sized
	// to the leaf's actual mixing time.
	AsyncLeafTicks int
}

// Normalized returns a copy with every defaulted field filled in.
func (s Spec) Normalized() Spec {
	if s.Seeds == 0 {
		s.Seeds = 1
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 1
	}
	if len(s.LossRates) == 0 {
		s.LossRates = []float64{0}
	}
	s.FaultModels = canonical(s.FaultModels)
	s.Transports = canonical(s.Transports)
	if len(s.Recovery) == 0 {
		s.Recovery = []bool{false}
	}
	if len(s.Betas) == 0 {
		s.Betas = []float64{0}
	}
	if len(s.Samplings) == 0 {
		s.Samplings = []string{SamplingRejection}
	}
	if len(s.Hierarchies) == 0 {
		s.Hierarchies = []string{HierarchyDeep}
	}
	if s.TargetErr == 0 {
		s.TargetErr = 1e-2
	}
	if s.MaxTicks == 0 {
		s.MaxTicks = 200_000_000
	}
	if s.RadiusMultiplier == 0 {
		s.RadiusMultiplier = 1.5
	}
	if s.Field == "" {
		s.Field = FieldSmooth
	}
	return s
}

// canonical returns a spec-text axis in canonical spelling ("perfect" ->
// "", ".2" -> "0.2"), so physically identical media share run seeds and
// aggregation cells regardless of how the spec was written. An empty
// axis selects {""}. Unparsable entries pass through untouched for
// Validate to reject.
func canonical(axis []string) []string {
	if len(axis) == 0 {
		return []string{""}
	}
	out := make([]string, len(axis))
	for i, text := range axis {
		out[i] = text
		if spec, err := channel.Parse(text); err == nil {
			out[i] = ""
			if !spec.IsZero() {
				out[i] = spec.String()
			}
		}
	}
	return out
}

// Validate reports the first problem with a normalized spec.
func (s Spec) Validate() error {
	if len(s.Algorithms) == 0 {
		return fmt.Errorf("sweep: spec has no algorithms")
	}
	for _, a := range s.Algorithms {
		if _, ok := engine.Lookup(a); !ok {
			return fmt.Errorf("sweep: unknown algorithm %q", a)
		}
	}
	if len(s.Ns) == 0 {
		return fmt.Errorf("sweep: spec has no network sizes")
	}
	for _, n := range s.Ns {
		if n <= 0 {
			return fmt.Errorf("sweep: invalid network size %d", n)
		}
	}
	if s.Seeds < 0 {
		return fmt.Errorf("sweep: Seeds value %d is negative", s.Seeds)
	}
	if s.AsyncLeafTicks < 0 {
		return fmt.Errorf("sweep: AsyncLeafTicks value %d is negative", s.AsyncLeafTicks)
	}
	// Checked before the loops below, which visit every medium of the
	// grid: a spec that arrives over the wire must not buy unbounded work
	// with a few bytes.
	if _, ok := s.taskCount(); !ok {
		return fmt.Errorf("sweep: grid expands to more than %d tasks", maxTasks)
	}
	// A non-finite value would run, then fail the sink's JSON encoding on
	// the first result line. Zero selects a default; a negative value
	// would run where the facade's options reject it (a negative Betas
	// coefficient diverges). Reject both here, by field name.
	for _, f := range []struct {
		name string
		vs   []float64
	}{
		{"RadiusMultiplier", []float64{s.RadiusMultiplier}},
		{"LossRates", s.LossRates},
		{"Betas", s.Betas},
		{"TargetErr", []float64{s.TargetErr}},
		{"AsyncThrottle", []float64{s.AsyncThrottle}},
	} {
		for _, v := range f.vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("sweep: %s value %v is not finite", f.name, v)
			}
			if v < 0 {
				return fmt.Errorf("sweep: %s value %v is negative", f.name, v)
			}
		}
	}
	for _, p := range s.LossRates {
		if p >= 1 {
			return fmt.Errorf("sweep: loss rate %v outside [0, 1)", p)
		}
		for _, fm := range s.FaultModels {
			for _, tr := range s.Transports {
				if _, err := medium(p, fm, tr); err != nil {
					return err
				}
			}
		}
	}
	for _, m := range s.Samplings {
		switch m {
		case SamplingRejection, SamplingUniform:
		default:
			return fmt.Errorf("sweep: unknown sampling mode %q", m)
		}
	}
	for _, h := range s.Hierarchies {
		switch h {
		case HierarchyDeep, HierarchyFlat:
		default:
			return fmt.Errorf("sweep: unknown hierarchy shape %q", h)
		}
	}
	switch s.Field {
	case FieldSmooth, FieldGaussian:
	default:
		return fmt.Errorf("sweep: unknown field %q", s.Field)
	}
	return nil
}

// maxTasks bounds the tasks one grid may expand to. Expand lists every
// task in memory, 192 bytes each, so a grid at the bound holds 192 MiB
// of tasks before its first run; at a millisecond per task, about the
// fastest run of the smallest network, it is already 17 minutes of one
// core. The bound is for specs that arrive from outside the process
// (cmd/sweep -config, a distributed worker's spec off the wire): with 4
// algorithms × 2 sizes, Seeds = 2^40 would ask Expand for 1.7·10^15
// bytes, and Seeds = 2^62 would wrap the product to 0.
const maxTasks = 1 << 20

// TaskCount returns the number of tasks the normalized spec expands to,
// or 0 when Validate rejects it.
func (s Spec) TaskCount() int {
	s = s.Normalized()
	if s.Validate() != nil {
		return 0
	}
	n, _ := s.taskCount()
	return n
}

// taskCount returns the product of the spec's axis lengths and true, or
// false once the product exceeds maxTasks; no step can overflow.
func (s Spec) taskCount() (int, bool) {
	n := 1
	for _, k := range []int{len(s.Algorithms), len(s.Ns), s.Seeds, len(s.LossRates),
		len(s.FaultModels), len(s.Transports), len(s.Recovery), len(s.Betas), len(s.Samplings), len(s.Hierarchies)} {
		if k > 0 && n > maxTasks/k {
			return 0, false
		}
		n *= k
	}
	return n, true
}

// Params are what one task is: its grid coordinates and the run-level
// parameters it executes under. Task and TaskResult both embed them, so
// a result records its task in one field, and a resumed result matches
// the grid's task when the two Params are equal. The JSON tags are the
// sink's field names, in the sink's order.
type Params struct {
	Algorithm string  `json:"algorithm"`
	N         int     `json:"n"`
	SeedIndex int     `json:"seed"`
	LossRate  float64 `json:"loss_rate"`
	// FaultModel is the channel.Parse spec the task runs under; empty for
	// the perfect medium / plain LossRate axis.
	FaultModel string `json:"fault_model,omitempty"`
	// Transport is the transport-reliability fragment (delay/reorder/dup/
	// arq) composed onto the fault model; empty when the task runs without
	// a transport layer.
	Transport string `json:"transport,omitempty"`
	// Recover reports whether the engines run their recovery protocols
	// (re-election / restart-from-neighbor resync).
	Recover   bool    `json:"recover,omitempty"`
	Beta      float64 `json:"beta"`
	Sampling  string  `json:"sampling,omitempty"`
	Hierarchy string  `json:"hierarchy,omitempty"`

	// The run-level parameters copied from the spec, recorded so a result
	// line is fully self-describing (replayable in isolation, and
	// checkable against the grid a resumed run expands).
	TargetErr        float64 `json:"target_err"`
	MaxTicks         uint64  `json:"max_ticks"`
	RadiusMultiplier float64 `json:"radius"`
	Field            string  `json:"field"`
	// AsyncThrottle and AsyncLeafTicks are recorded only when the spec
	// overrode the async engine's round-budget model (omitted as zero
	// otherwise, so pre-existing output stays byte-identical).
	AsyncThrottle  float64 `json:"async_throttle,omitempty"`
	AsyncLeafTicks int     `json:"async_leaf_ticks,omitempty"`
}

// Cell returns the grid-cell key of the parameters: the task coordinates
// minus the seed index, the unit results aggregate over.
func (p Params) Cell() CellKey {
	return CellKey{
		Algorithm:  p.Algorithm,
		N:          p.N,
		LossRate:   p.LossRate,
		FaultModel: p.FaultModel,
		Transport:  p.Transport,
		Recover:    p.Recover,
		Beta:       p.Beta,
		Sampling:   p.Sampling,
		Hierarchy:  p.Hierarchy,
	}
}

// Task is one expanded grid point. IDs are assigned in expansion order
// (algorithm outermost, hierarchy innermost), so the same spec always
// yields the same Task list.
type Task struct {
	ID int
	Params
	// BaseSeed is the spec's: with the Params it derives every seed the
	// task runs with.
	BaseSeed uint64
}

// Expand lists every task of the grid in deterministic ID order.
func (s Spec) Expand() []Task {
	s = s.Normalized()
	tasks := make([]Task, 0, s.TaskCount())
	id := 0
	for _, algo := range s.Algorithms {
		for _, n := range s.Ns {
			for seed := 0; seed < s.Seeds; seed++ {
				for _, loss := range s.LossRates {
					for _, fm := range s.FaultModels {
						for _, tr := range s.Transports {
							for _, rec := range s.Recovery {
								for _, beta := range s.Betas {
									for _, sampling := range s.Samplings {
										for _, shape := range s.Hierarchies {
											tasks = append(tasks, Task{ID: id, BaseSeed: s.BaseSeed, Params: Params{
												Algorithm:        algo,
												N:                n,
												SeedIndex:        seed,
												LossRate:         loss,
												FaultModel:       fm,
												Transport:        tr,
												Recover:          rec,
												Beta:             beta,
												Sampling:         sampling,
												Hierarchy:        shape,
												TargetErr:        s.TargetErr,
												MaxTicks:         s.MaxTicks,
												RadiusMultiplier: s.RadiusMultiplier,
												Field:            s.Field,
												AsyncThrottle:    s.AsyncThrottle,
												AsyncLeafTicks:   s.AsyncLeafTicks,
											}})
											id++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return tasks
}

// netSeed derives the placement seed for a (n, seed index) cell at a
// given connectivity retry attempt. It deliberately ignores the
// algorithm and protocol axes so every algorithm of a cell runs on the
// identical network instance.
func (t Task) netSeed(attempt int) uint64 {
	return rng.Derive(rng.DeriveString(t.BaseSeed, "sweep/net"),
		uint64(t.N), uint64(t.SeedIndex), uint64(attempt))
}

// runSeed derives the protocol seed from the full semantic coordinates of
// the task, so results depend only on what the task *is*, never on grid
// shape, task ID, or scheduling. The fault model folds in only when set,
// keeping seeds — and therefore results — of pre-fault-axis grids
// unchanged.
func (t Task) runSeed() uint64 {
	seed := rng.Derive(
		rng.DeriveString(rng.DeriveString(t.BaseSeed, "sweep/run"), t.Algorithm),
		uint64(t.N),
		uint64(t.SeedIndex),
		math.Float64bits(t.LossRate),
		math.Float64bits(t.Beta),
		rng.DeriveString(0, t.Sampling),
		rng.DeriveString(0, t.Hierarchy),
	)
	if t.FaultModel != "" {
		seed = rng.DeriveString(rng.DeriveString(seed, "sweep/faults"), t.FaultModel)
	}
	if t.Transport != "" {
		// Folded in only when set, like the fault model: transport-free
		// tasks keep the exact seeds of pre-axis grids.
		seed = rng.DeriveString(rng.DeriveString(seed, "sweep/transport"), t.Transport)
	}
	if t.Recover {
		// Folded in only when set, like the fault model: recovery-off
		// tasks keep the exact seeds of pre-axis grids.
		seed = rng.DeriveString(seed, "sweep/recover")
	}
	return seed
}

// medium composes one task's radio medium from its three medium axes:
// the FaultModel entry, the LossRate entry as a Bernoulli loss model (0
// adds none) and the Transport entry, under the one composition rule of
// channel.Spec.Compose. The sweep adds one rule of its own: a non-empty
// Transport entry owns the whole transport layer, so it holds only
// transport components and the fault model it is crossed with holds
// none.
func medium(lossRate float64, faultModel, transport string) (channel.Spec, error) {
	spec, err := channel.Parse(faultModel)
	if err != nil {
		return spec, fmt.Errorf("sweep: fault model %q: %w", faultModel, err)
	}
	tr, err := channel.Parse(transport)
	if err != nil {
		return spec, fmt.Errorf("sweep: transport %q: %w", transport, err)
	}
	if !tr.IsZero() && !tr.TransportOnly() {
		return spec, fmt.Errorf("sweep: transport %q carries non-transport components; loss/field/cut/churn belong on the fault-model axis", transport)
	}
	if !tr.IsZero() && spec.HasTransport() {
		return spec, fmt.Errorf("sweep: fault model %q carries transport components; it cannot be crossed with a non-empty transport axis", faultModel)
	}
	var loss channel.Spec
	if lossRate != 0 {
		loss = channel.Spec{Loss: channel.LossBernoulli, LossRate: lossRate}
	}
	if spec, err = spec.Compose(loss); err != nil {
		return spec, fmt.Errorf("sweep: loss rate %v and fault model %q cannot be crossed: %w", lossRate, faultModel, err)
	}
	return spec.Compose(tr)
}

// fieldSeed derives the seed for iid initial measurements; like netSeed
// it is shared across the algorithms of a cell.
func (t Task) fieldSeed() uint64 {
	return rng.Derive(rng.DeriveString(t.BaseSeed, "sweep/field"),
		uint64(t.N), uint64(t.SeedIndex))
}

// TaskResult is the outcome of one task. It contains only deterministic
// fields: serializing results sorted by TaskID yields byte-identical
// output regardless of worker count.
type TaskResult struct {
	TaskID int `json:"task_id"`
	// Params are the task's, in the sink's field order.
	Params

	NetSeed uint64 `json:"net_seed"`
	RunSeed uint64 `json:"run_seed"`

	Converged     bool    `json:"converged"`
	FinalErr      float64 `json:"final_err"`
	Transmissions uint64  `json:"transmissions"`
	// SimSeconds is the run's time-to-converge in simulated seconds
	// (metrics.Result.SimSeconds); zero — and omitted, keeping
	// transport-free output byte-identical — unless the task's effective
	// medium has transport components.
	SimSeconds   float64           `json:"sim_seconds,omitempty"`
	Breakdown    map[string]uint64 `json:"breakdown,omitempty"`
	FarExchanges uint64            `json:"far_exchanges,omitempty"`
	HierarchyEll int               `json:"hierarchy_ell,omitempty"`

	// Error carries a per-task failure (e.g. no connected instance
	// found); all result fields above it are zero when set.
	Error string `json:"error,omitempty"`
}
