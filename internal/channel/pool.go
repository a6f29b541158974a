package channel

import (
	"fmt"
	"sync/atomic"

	"geogossip/internal/rng"
)

// Pool holds reusable channel state so a pooled run state can rebuild a
// spec's fault medium every run without re-allocating it: the loss-model
// and wrapper structs are reused in place, and churn keeps its per-node
// schedule state — including each node's schedule generator, reseeded per
// run — across runs. There is one build path: Spec.Build is BuildWith on
// a fresh Pool, so a channel built through a kept Pool is draw- and
// behaviour-identical to a fresh one by construction; only the
// allocations differ. A Pool serves one run at a time, like the engines
// that own it.
type Pool struct {
	bern    Bernoulli
	ge      GilbertElliott
	spatial SpatialLoss
	part    Partition
	churn   Churn
	delay   Delay
	arq     ARQ
	timed   Timed
	// delayRNG and arqRNG are the kept transport streams, reseeded per
	// run to the identical derived seeds a fresh build would use.
	delayRNG, arqRNG *rng.RNG
	// builds counts the channels served from pooled storage; atomic only
	// so a live metrics scrape can read it while a run builds (one add per
	// run, nowhere near a hot path).
	builds atomic.Uint64
}

// Builds counts how many channels this pool has served without fresh
// allocation — the pool-reuse figure the sweep engine surfaces on the
// metrics registry.
func (p *Pool) Builds() uint64 {
	if p == nil {
		return 0
	}
	return p.builds.Load()
}

// BuildWith is Spec.Build backed by reusable state: the pool supplies the
// channel structs (and churn's per-node schedule state) in place of
// fresh allocations. A nil pool builds into a fresh Pool, which is Build.
func (s Spec) BuildWith(p *Pool, n int, env Env, lossRNG, churnRNG *rng.RNG) (Channel, error) {
	if s.Spatial() && len(env.Points) < n {
		return nil, fmt.Errorf("channel: spec %q has spatial components but the engine supplied %d of %d node positions", s, len(env.Points), n)
	}
	if p == nil {
		p = new(Pool)
	}
	p.builds.Add(1)
	var ch Channel = Perfect{}
	switch s.Loss {
	case LossBernoulli:
		p.bern = Bernoulli{P: s.LossRate, R: lossRNG}
		ch = &p.bern
	case LossGilbertElliott:
		p.ge = GilbertElliott{params: s.GE, r: lossRNG}
		ch = &p.ge
	}
	if len(s.Fields) > 0 {
		p.spatial.reset(ch, s.Fields, lossRNG)
		ch = &p.spatial
	}
	if s.HasCut() {
		p.part = Partition{inner: ch, cut: s.Cut}
		ch = &p.part
	}
	if s.HasDelayLayer() {
		p.delayRNG = reseed(p.delayRNG, rng.DeriveString(lossRNG.Seed(), "delay"))
		p.delay.reset(ch, s.Delay, s.Reorder, s.Dup, p.delayRNG, env.Timeline)
		ch = &p.delay
	}
	if !s.ARQ.IsZero() {
		p.arqRNG = reseed(p.arqRNG, rng.DeriveString(lossRNG.Seed(), "arq"))
		p.arq.reset(ch, s.ARQ, p.arqRNG, env.Timeline, env.Tally, env.Tracer)
		ch = &p.arq
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
		p.churn.reset(ch, n, s.Churn, targets, churnRNG)
		ch = &p.churn
	}
	if s.HasTransport() && env.Timeline != nil {
		// Outermost bracket: every top-level delivery's accumulated
		// latency closes on the timeline as one completion.
		p.timed = Timed{inner: ch, tl: env.Timeline, tally: env.Tally}
		ch = &p.timed
	}
	return ch, nil
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
