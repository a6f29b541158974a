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
// run — across runs. A channel built through a Pool is draw- and
// behaviour-identical to one built by Spec.Build (the per-node schedule
// seeds and the per-call draw order are the same by construction); only
// the allocations differ. A Pool serves one run at a time, like the
// engines that own it.
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

// BuildWith is Spec.Build backed by reusable state: a non-nil pool
// supplies the channel structs (and churn's per-node schedule state) in
// place of fresh allocations. A nil pool is exactly Build.
func (s Spec) BuildWith(p *Pool, n int, env Env, lossRNG, churnRNG *rng.RNG) (Channel, error) {
	if s.Spatial() && len(env.Points) < n {
		return nil, fmt.Errorf("channel: spec %q has spatial components but the engine supplied %d of %d node positions", s, len(env.Points), n)
	}
	if p != nil {
		p.builds.Add(1)
	}
	var ch Channel
	switch s.Loss {
	case LossBernoulli:
		if p != nil {
			p.bern = Bernoulli{P: s.LossRate, R: lossRNG}
			ch = &p.bern
		} else {
			ch = &Bernoulli{P: s.LossRate, R: lossRNG}
		}
	case LossGilbertElliott:
		if p != nil {
			p.ge = GilbertElliott{params: s.GE, r: lossRNG}
			ch = &p.ge
		} else {
			ch = NewGilbertElliott(s.GE, lossRNG)
		}
	default:
		ch = Perfect{}
	}
	if len(s.Fields) > 0 {
		if p != nil {
			p.spatial.reset(ch, s.Fields, lossRNG)
			ch = &p.spatial
		} else {
			ch = NewSpatialLoss(ch, s.Fields, lossRNG)
		}
	}
	if s.HasCut() {
		if p != nil {
			p.part = Partition{inner: ch, cut: s.Cut}
			ch = &p.part
		} else {
			ch = NewPartition(ch, s.Cut)
		}
	}
	if s.HasDelayLayer() {
		seed := rng.DeriveString(lossRNG.Seed(), "delay")
		if p != nil {
			p.delayRNG = reseed(p.delayRNG, seed)
			p.delay.reset(ch, s.Delay, s.Reorder, s.Dup, p.delayRNG, env.Timeline)
			ch = &p.delay
		} else {
			ch = NewDelay(ch, s.Delay, s.Reorder, s.Dup, rng.New(seed), env.Timeline)
		}
	}
	if !s.ARQ.IsZero() {
		seed := rng.DeriveString(lossRNG.Seed(), "arq")
		if p != nil {
			p.arqRNG = reseed(p.arqRNG, seed)
			p.arq.reset(ch, s.ARQ, p.arqRNG, env.Timeline, env.Tally, env.Tracer)
			ch = &p.arq
		} else {
			ch = NewARQ(ch, s.ARQ, rng.New(seed), env.Timeline, env.Tally, env.Tracer)
		}
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
		if p != nil {
			p.churn.reset(ch, n, s.Churn, targets, churnRNG)
			ch = &p.churn
		} else {
			ch = NewTargetedChurn(ch, n, s.Churn, targets, churnRNG)
		}
	}
	if s.HasTransport() && env.Timeline != nil {
		// Outermost bracket: every top-level delivery's accumulated
		// latency closes on the timeline as one completion.
		if p != nil {
			p.timed = Timed{inner: ch, tl: env.Timeline, tally: env.Tally}
			ch = &p.timed
		} else {
			ch = NewTimed(ch, env.Timeline, env.Tally)
		}
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

// reset re-initializes a pooled SpatialLoss in place (see NewSpatialLoss
// for the evaluator semantics), keeping the evaluator storage.
func (s *SpatialLoss) reset(inner Channel, fields []FieldParams, r *rng.RNG) {
	if inner == nil {
		inner = Perfect{}
	}
	if cap(s.evals) >= len(fields) {
		s.evals = s.evals[:len(fields)]
	} else {
		s.evals = make([]fieldEval, len(fields))
	}
	s.inner, s.r = inner, r
	for i, f := range fields {
		s.evals[i] = fieldEval{}
		s.initEval(&s.evals[i], f)
	}
}

// reset re-initializes a pooled Churn in place, keeping the per-node
// schedule state so no node RNG is re-allocated: a node's schedule
// generator is reseeded lazily (see Alive) to the identical per-node seed
// a fresh Churn would derive.
func (c *Churn) reset(inner Channel, n int, p ChurnParams, targets []int32, r *rng.RNG) {
	if inner == nil {
		inner = Perfect{}
	}
	c.inner, c.params, c.now, c.seed = inner, p, 0, r.Seed()
	if cap(c.nodes) >= n {
		c.nodes = c.nodes[:n]
	} else {
		c.nodes = make([]churnNode, n)
	}
	for i := range c.nodes {
		nd := &c.nodes[i]
		nd.alive, nd.nextFlip, nd.started = false, 0, false // nd.r is kept for reseeding
	}
	c.target = nil
	if targets != nil {
		if cap(c.targetBuf) >= n {
			c.targetBuf = c.targetBuf[:n]
			clear(c.targetBuf)
		} else {
			c.targetBuf = make([]bool, n)
		}
		for _, t := range targets {
			c.targetBuf[t] = true
		}
		c.target = c.targetBuf
	}
}
