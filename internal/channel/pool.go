package channel

import (
	"fmt"
	"sync/atomic"

	"geogossip/internal/rng"
)

// Pool holds a reusable Medium so a pooled run state can rebuild a
// spec's medium every run without re-allocating it: BuildWith builds the
// Medium in place, keeping its field storage, churn's per-node schedule
// state — including each node's schedule generator, reseeded per run —
// and the transport stages' streams, reseeded per run. There is one
// build path: Spec.Build is BuildWith on a fresh Pool, so a medium built
// through a kept Pool is draw- and behaviour-identical to a fresh one by
// construction; only the allocations differ. A Pool serves one run at a
// time, like the engines that own it.
type Pool struct {
	m Medium
	// builds counts the media served from pooled storage; atomic only so
	// a live metrics scrape can read it while a run builds (one add per
	// run, nowhere near a hot path).
	builds atomic.Uint64
}

// Builds counts how many media this pool has served without fresh
// allocation — the pool-reuse figure the sweep engine surfaces on the
// metrics registry.
func (p *Pool) Builds() uint64 {
	if p == nil {
		return 0
	}
	return p.builds.Load()
}

// BuildWith turns the spec into a live Medium over n nodes, built in
// place on the pool (a nil pool builds into a fresh Pool, which is
// Build). Loss draws (the loss model and the jamming fields) come from
// lossRNG and churn schedules from churnRNG, so an engine wires its own
// deterministic streams in; the delay and ARQ streams derive by name
// from lossRNG's seed. env supplies the geometry and roles spatial and
// targeted components need, and the run-local timeline, tally and
// tracer. A zero spec builds the perfect medium, which draws from
// neither stream.
func (s Spec) BuildWith(p *Pool, n int, env Env, lossRNG, churnRNG *rng.RNG) (*Medium, error) {
	if s.Spatial() && len(env.Points) < n {
		return nil, fmt.Errorf("channel: spec %q has spatial components but the engine supplied %d of %d node positions", s, len(env.Points), n)
	}
	if p == nil {
		p = new(Pool)
	}
	p.builds.Add(1)
	m := &p.m
	*m = Medium{
		lossR:  lossRNG,
		fields: m.fields[:0], nodes: m.nodes, targetBuf: m.targetBuf,
		delayR: m.delayR, arqR: m.arqR,
		tl: env.Timeline, tally: env.Tally, tracer: env.Tracer,
	}
	switch s.Loss {
	case LossBernoulli:
		if s.LossRate > 0 { // a zero rate draws nothing
			m.stages |= stageBernoulli
			m.lossP = s.LossRate
		}
	case LossGilbertElliott:
		m.stages |= stageGE
		m.ge = s.GE
	}
	if len(s.Fields) > 0 {
		m.stages |= stageFields
		for _, f := range s.Fields {
			m.fields = append(m.fields, newJammer(f))
		}
	}
	if s.HasCut() {
		m.stages |= stageCut
		m.cut = s.Cut
	}
	if s.HasDelayLayer() {
		m.stages |= stageDelay
		m.delay, m.reorder, m.dup = s.Delay, s.Reorder, s.Dup
		m.delayR = reseed(m.delayR, rng.DeriveString(lossRNG.Seed(), "delay"))
	}
	if !s.ARQ.IsZero() {
		m.stages |= stageARQ
		m.arq = s.ARQ
		m.arqR = reseed(m.arqR, rng.DeriveString(lossRNG.Seed(), "arq"))
	}
	if s.HasChurn() {
		var targets []int32
		switch s.ChurnTarget {
		case TargetReps:
			if env.Reps == nil {
				return nil, fmt.Errorf("channel: spec %q targets hierarchy representatives but the engine has no hierarchy", s)
			}
			targets = env.Reps
		case TargetHubs:
			if len(env.HubOrder) < s.HubCount {
				return nil, fmt.Errorf("channel: spec %q targets %d hubs but the engine supplied a degree order of %d nodes", s, s.HubCount, len(env.HubOrder))
			}
			targets = env.HubOrder[:s.HubCount]
		}
		m.stages |= stageChurn
		m.resetChurn(n, s.Churn, targets, churnRNG)
	}
	if s.HasTransport() && env.Timeline != nil {
		m.stages |= stageTimed
	}
	return m, nil
}

// reseed returns r reseeded to seed, allocating only on first use — the
// pooled-stream idiom churn's per-node generators established.
func reseed(r *rng.RNG, seed uint64) *rng.RNG {
	if r == nil {
		return rng.New(seed)
	}
	r.Reseed(seed)
	return r
}
