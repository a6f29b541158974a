package gossip

import (
	"math"

	"geogossip/internal/graph"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// pipeDepth is the batch depth of the boyd and push-sum tick pipeline
// (DESIGN.md §7). A serial tick at n = 131072 waits on three dependent
// cache misses — the owner's adjacency offsets, the partner's adjacency
// slot, the pair's values — one after another; drawing pipeDepth ticks
// ahead and reading their state in independent loops lets those misses
// overlap. Shallower batches overlap fewer misses; deeper ones measured
// no faster (DESIGN.md §7).
const pipeDepth = 32

// tickBatch holds the ticks the pipeline drew ahead of applying them.
type tickBatch struct {
	// owner[i] is the node whose clock fires at the batch's i-th tick.
	owner [pipeDepth]int32
	// partner[i] is owner[i]'s exchange partner when partners are drawn
	// ahead, else -1 (no neighbour, or drawn at apply time).
	partner [pipeDepth]int32
	// sink keeps the gather loads live.
	sink uint64
}

// draw is the pipeline's first phase: it draws the owners of the next
// k = min(pipeDepth, MaxTicks − ticks) ticks from the clock stream in
// one batch without counting them and, when ahead is set, their
// partners from pick in a second batch over the owners' degrees. Each
// dependent load — the owners' adjacency offsets, then the partners'
// adjacency slots — runs in a loop of its own, so the misses within a
// loop overlap. It returns k.
//
// Partners may be drawn ahead only when no node can go down: under
// churn, liveness at tick t decides whether the partner draw (and the
// resync exchange's extra draw) happens at all, so the caller leaves
// ahead unset and the apply phase draws them in tick order.
func (b *tickBatch) draw(h *sim.Harness, g *graph.Graph, pick *rng.RNG, ahead bool) int {
	k := pipeDepth
	if left := h.Stop.MaxTicks - h.Clock.Ticks(); left < pipeDepth {
		k = int(left)
	}
	own := b.owner[:k]
	h.Clock.Draw(own)
	var deg [pipeDepth]int32
	sum := 0
	for i, s := range own {
		d := g.Degree(s)
		deg[i] = int32(d)
		sum += d
	}
	b.sink += uint64(sum)
	if !ahead {
		for i := range own {
			b.partner[i] = -1
		}
		return k
	}
	// The pick draws need only the (now cached) degrees: one batch draw
	// over them, which draws nothing for a node without neighbours. The
	// slots they select are loaded afterwards, all at once. slot lives on
	// the stack, so no pointer into a graph outlives the call.
	var idx [pipeDepth]int32
	rng.IntNs(pick, idx[:k], deg[:k])
	var slot [pipeDepth]*int32
	for i, s := range own {
		if deg[i] > 0 {
			slot[i] = &g.Neighbors(s)[idx[i]]
		}
	}
	for i, p := range slot[:k] {
		b.partner[i] = -1
		if p != nil {
			b.partner[i] = *p
		}
	}
	return k
}

// touch reads vals at the owner and drawn partner of each of the
// batch's first k ticks, so the apply phase finds their cache lines
// warm. The loads are independent of each other; only their bits are
// folded into the sink.
func (b *tickBatch) touch(vals []float64, k int) {
	acc := b.sink
	for i, s := range b.owner[:k] {
		acc ^= math.Float64bits(vals[s])
		if v := b.partner[i]; v >= 0 {
			acc ^= math.Float64bits(vals[v])
		}
	}
	b.sink = acc
}

// partner draws s's exchange partner, a uniformly random graph
// neighbour, from pick: -1, and no draw, when s has none.
func partner(g *graph.Graph, s int32, pick *rng.RNG) int32 {
	deg := g.Degree(s)
	if deg == 0 {
		return -1
	}
	return g.Neighbors(s)[pick.IntN(deg)]
}
