package gossip

import (
	"fmt"

	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/metrics"
	"geogossip/internal/par"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// Parallel configures deterministic sharded tick execution (DESIGN.md
// §9); it is sim.Parallel, shared with the async engine's sweep knob.
// The zero value disables it, leaving every engine on the serial
// draw-compatible schedule — the default-off rule that keeps all
// pre-existing fingerprints byte-identical.
//
// When enabled, the node set is partitioned into Shards contiguous
// ranges. Execution proceeds in block-synchronous rounds of one simulated
// time unit (n global ticks): within a block each shard issues one tick
// per owned node from its own pair of rng.Derive'd streams, applies
// exchanges whose partner lies in-shard immediately, and defers
// cross-shard exchanges to a queue; at the block barrier the queues and
// the shards' incremental error deltas are merged in fixed shard order.
// The schedule is therefore a pure function of (seed, n, Shards): Workers
// only decides which goroutine executes a shard, so a run is bit-identical
// to itself at every worker count (asserted by test at {1, 2, NumCPU}).
//
// The parallel schedule is a different — equally valid — interleaving of
// the same protocol than the serial one, so its results are not draw-
// compatible with serial runs; compare parallel runs only to parallel
// runs with the same shard count.
//
// Parallel mode requires the perfect medium: loss and churn draw from
// shared per-run streams whose draw order a sharded schedule cannot
// preserve, so combining Parallel with faults, Resync or a Tracer is
// rejected. Boyd and push-sum honour it; geographic gossip (whose routed
// exchanges are global by nature) rejects it.
type Parallel = sim.Parallel

// DefaultShards re-exports sim.DefaultShards for callers configuring
// gossip runs.
const DefaultShards = sim.DefaultShards

// parallelGate rejects option combinations the sharded schedule cannot
// execute deterministically.
func (o Options) parallelGate() error {
	if !o.Faults.IsZero() {
		return fmt.Errorf("gossip: Parallel requires the perfect medium (no loss, jamming or churn)")
	}
	if o.Resync {
		return fmt.Errorf("gossip: Parallel cannot be combined with Resync")
	}
	if o.Tracer != nil {
		return fmt.Errorf("gossip: Parallel cannot be combined with a Tracer (event order is schedule-dependent)")
	}
	return nil
}

// tickShard is the per-shard state of the parallel scheduler: the owned
// node range, the shard's private clock/pick streams, the deferred
// cross-shard exchange queue, and the block-local accumulators that merge
// into the global tracker/counter at the barrier. All storage is pooled
// in the RunState, so steady-state blocks run at 0 allocs/op per shard.
type tickShard struct {
	lo, hi      int32
	clock, pick *rng.RNG
	// def holds deferred cross-shard exchanges as flattened (owner,
	// partner) pairs, applied in order at the block barrier.
	def []int32
	// Block-local accumulators, folded into the harness in shard order.
	dev2    float64
	updates int
	near    int
}

func (sh *tickShard) resetBlock() {
	sh.def = sh.def[:0]
	sh.dev2 = 0
	sh.updates = 0
	sh.near = 0
}

// bindShards prepares the pooled shard array for a run: S = min(Shards,
// n) contiguous ranges via par.Ranges, each with clock/pick streams
// reseeded from rng.Derive(DeriveString(seed, "pshard"), shard, role) —
// the derivation DESIGN.md §9 fixes.
func (st *RunState) bindShards(p Parallel, n int, r *rng.RNG) []tickShard {
	s := p.Shards
	if s > n {
		s = n
	}
	bounds := par.Ranges(n, s)
	if cap(st.shards) >= s {
		st.shards = st.shards[:s]
	} else {
		grown := make([]tickShard, s)
		copy(grown, st.shards) // keep pooled RNGs and queues
		st.shards = grown
	}
	base := rng.DeriveString(r.Seed(), "pshard")
	for i := range st.shards {
		sh := &st.shards[i]
		sh.lo, sh.hi = int32(bounds[i]), int32(bounds[i+1])
		clockSeed := rng.Derive(base, uint64(i), 0)
		pickSeed := rng.Derive(base, uint64(i), 1)
		if sh.clock == nil {
			sh.clock = rng.New(clockSeed)
		} else {
			sh.clock.Reseed(clockSeed)
		}
		if sh.pick == nil {
			sh.pick = rng.New(pickSeed)
		} else {
			sh.pick.Reseed(pickSeed)
		}
		sh.resetBlock()
	}
	return st.shards
}

// boydBlock executes one block of in-shard boyd ticks: size ticks, owners
// drawn from the shard clock, partners from the shard pick stream.
// In-shard pairwise averages commit immediately (both endpoints are owned,
// so writes never leave the shard's range); cross-shard pairs defer.
// Zero allocations in steady state.
func (sh *tickShard) boydBlock(g *graph.Graph, x []float64, mean float64) {
	size := int(sh.hi - sh.lo)
	for t := 0; t < size; t++ {
		s := sh.lo + int32(sh.clock.IntN(size))
		deg := g.Degree(s)
		if deg == 0 {
			continue
		}
		v := g.Neighbors(s)[sh.pick.IntN(deg)]
		if v >= sh.lo && v < sh.hi {
			avg := (x[s] + x[v]) / 2
			dA, dB, dN := x[s]-mean, x[v]-mean, avg-mean
			sh.dev2 += 2*dN*dN - dA*dA - dB*dB
			x[s], x[v] = avg, avg
			sh.updates += 2
			sh.near += 2
		} else {
			sh.def = append(sh.def, s, v)
		}
	}
}

// pushSumBlock is boydBlock for push-sum: in-shard pushes move mass and
// refresh both estimates immediately; cross-shard pushes defer, the
// sender keeping its full pair until the barrier (the deterministic
// analogue of an in-flight message). Zero allocations in steady state.
func (sh *tickShard) pushSumBlock(g *graph.Graph, s, w, est []float64, mean float64) {
	size := int(sh.hi - sh.lo)
	for t := 0; t < size; t++ {
		i := sh.lo + int32(sh.clock.IntN(size))
		deg := g.Degree(i)
		if deg == 0 {
			continue
		}
		j := g.Neighbors(i)[sh.pick.IntN(deg)]
		if j >= sh.lo && j < sh.hi {
			s[i] /= 2
			w[i] /= 2
			s[j] += s[i]
			w[j] += w[i]
			oi, oj := est[i], est[j]
			ni, nj := s[i]/w[i], s[j]/w[j]
			est[i], est[j] = ni, nj
			dOi, dOj := oi-mean, oj-mean
			dNi, dNj := ni-mean, nj-mean
			sh.dev2 += dNi*dNi - dOi*dOi + dNj*dNj - dOj*dOj
			sh.updates += 2
			sh.near++
		} else {
			sh.def = append(sh.def, i, j)
		}
	}
}

// runBoydParallel is RunBoyd on the deterministic sharded schedule.
func runBoydParallel(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, error) {
	if err := opt.parallelGate(); err != nil {
		return nil, err
	}
	p := opt.Parallel.WithDefaults()
	st := stateOf(opt)
	st.h.Reset(x, sim.HarnessConfig{
		Stop:        opt.Stop,
		RecordEvery: opt.RecordEvery,
		Medium:      channel.Perfect{},
		Obs:         opt.Obs,
	}, st.stream(&st.clockRNG, r, "clock"))
	h := &st.h
	n := g.N()
	shards := st.bindShards(p, n, r)
	workers := p.Workers
	mean := h.Tracker.Mean()
	for !h.Done() {
		prev := h.Clock.Ticks()
		par.Do(workers, len(shards), func(si int) {
			shards[si].boydBlock(g, x, mean)
		})
		for si := range shards {
			sh := &shards[si]
			h.Counter.Add(sim.CatNear, sh.near)
			h.Tracker.ApplyExternal(sh.dev2, sh.updates)
			for k := 0; k < len(sh.def); k += 2 {
				a, b := sh.def[k], sh.def[k+1]
				avg := (x[a] + x[b]) / 2
				h.Tracker.Set(a, avg)
				h.Tracker.Set(b, avg)
				h.Counter.Add(sim.CatNear, 2)
			}
			sh.resetBlock()
		}
		h.Clock.Bump(uint64(n))
		h.BlockSample(prev)
	}
	return h.Finish("boyd"), nil
}

// runPushSumParallel is the push-sum engine on the sharded schedule. It
// returns the engine state like runPushSum so RunPushSumState can
// snapshot the mass vectors.
func runPushSumParallel(g *graph.Graph, x []float64, opt Options, r *rng.RNG) (*metrics.Result, *pushSumRun, error) {
	if err := opt.parallelGate(); err != nil {
		return nil, nil, err
	}
	p := opt.Parallel.WithDefaults()
	st := stateOf(opt)
	n := g.N()
	st.s = sim.GrowFloat(st.s, n)
	copy(st.s, x)
	st.w = sim.GrowFloat(st.w, n)
	for i := range st.w {
		st.w[i] = 1
	}
	st.est = sim.GrowFloat(st.est, n)
	copy(st.est, st.s)
	st.h.Reset(st.est, sim.HarnessConfig{
		Stop:        opt.Stop,
		RecordEvery: opt.RecordEvery,
		Medium:      channel.Perfect{},
		Obs:         opt.Obs,
	}, st.stream(&st.clockRNG, r, "clock"))
	h := &st.h
	e := &st.push
	*e = pushSumRun{g: g, h: h, s: st.s, w: st.w, est: st.est}
	shards := st.bindShards(p, n, r)
	workers := p.Workers
	mean := h.Tracker.Mean()
	for !h.Done() {
		prev := h.Clock.Ticks()
		par.Do(workers, len(shards), func(si int) {
			shards[si].pushSumBlock(g, e.s, e.w, e.est, mean)
		})
		for si := range shards {
			sh := &shards[si]
			h.Counter.Add(sim.CatNear, sh.near)
			h.Tracker.ApplyExternal(sh.dev2, sh.updates)
			for k := 0; k < len(sh.def); k += 2 {
				i, j := sh.def[k], sh.def[k+1]
				e.s[i] /= 2
				e.w[i] /= 2
				e.s[j] += e.s[i]
				e.w[j] += e.w[i]
				h.Tracker.Set(i, e.s[i]/e.w[i])
				h.Tracker.Set(j, e.s[j]/e.w[j])
				h.Counter.Add(sim.CatNear, 1)
			}
			sh.resetBlock()
		}
		h.Clock.Bump(uint64(n))
		h.BlockSample(prev)
	}
	res := e.h.Finish("push-sum")
	copy(x, e.est)
	return res, e, nil
}
