package core

import (
	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
)

// RunState is the reusable per-run mutable state of the hierarchy engines
// (the round-structured recursive engine and the event-driven async
// engine): the routing core, the copy-on-write representative view, the
// flattened leaf adjacency and repair tables derived from the network,
// the channel pool, the named RNG streams, and every per-node / per-square
// scratch slice a run needs. A fresh zero RunState is valid; passing one
// through RecursiveOptions.State / AsyncOptions.State and reusing it —
// the sweep engine keeps one per worker — turns per-run setup into O(1)
// allocations per (state, network) pair: network-derived structures are
// rebuilt only when the bound (graph, hierarchy) changes, and run scratch
// is epoch- or memclr-reset.
//
// Reuse cannot change results: a pooled run is draw- and result-identical
// to a fresh one (reseeded streams, RepView bit-equivalent to the former
// per-run hierarchy Clone, routing pure in the graph); the bit-identity
// tests assert it engine by engine, fault model by fault model.
//
// A RunState serves one run at a time (single-goroutine, like the
// engines). Results returned from pooled runs are safe to retain:
// everything that escapes into a Result is snapshotted at run end.
type RunState struct {
	// Network binding: the derived structures below are pure functions of
	// (g, h, repairRec) and are rebuilt only when the binding changes.
	g         *graph.Graph
	h         *hier.Hierarchy
	repairRec routing.Recovery

	// Flattened leaf adjacency: node i's graph neighbours inside its own
	// leaf square are leafIDs[leafOff[i]:leafOff[i+1]] (ascending, the
	// candidates for Near exchanges).
	leafOff []int32
	leafIDs []int32

	// repairBase is the leaf-repair hop table relative to the base
	// representatives (see leafRepair); repair is the active table,
	// aliasing repairBase until a re-election copies it into repairBuf
	// (copy-on-write, so fault-free runs never touch it).
	repairBase  []int32
	repair      []int32
	repairBuf   []int32
	repairDirty bool
	// Re-election / repair-rebuild scratch, reused across elections.
	compScratch  []int32
	queueScratch []int32
	bridged      []bool
	changedBuf   []int

	// view is the copy-on-write representative overlay engines read and
	// re-elect through (replaces the former per-run hierarchy Clone).
	view hier.RepView

	router routing.Router
	// privRoutes is the state-owned route/flood cache used when the run
	// supplies no shared one, kept per bound graph.
	privRoutes *routing.Cache
	ch         channel.Pool
	// tline is the transport event clock (DESIGN.md §12), reset per run
	// before the medium is built so delay/arq wrappers can schedule
	// completions on it. Inactive (and cost-free) without transport
	// components in the fault spec.
	tline channel.Timeline

	// Named streams, reseeded per run via StreamInto.
	pickRNG, leafRNG, lossRNG, churnRNG, protoRNG, clockRNG *rng.RNG

	// Recursive-engine section.
	rec     engine
	tracker sim.ErrTracker

	// Async-engine section.
	async     asyncEngine
	harness   sim.Harness
	localOn   []bool
	globalOn  []bool
	active    []bool
	count     []uint64
	budget    []uint64
	pFar      []float64
	epsBuf    []float64
	prevAlive []bool
	// Flattened siblings-with-rep: square sq's exchange partners are
	// sibsIDs[sibsOff[sq]:sibsOff[sq+1]]; rebuilt (allocation-free after
	// first) when a recovery sweep changes representatives.
	sibsOff []int32
	sibsIDs []int32
}

// NewRunState returns an empty reusable run state.
func NewRunState() *RunState { return &RunState{} }

// ChannelBuilds reports how many radio channels this state's pool has
// served in place of fresh allocations (see channel.Pool.Builds).
func (st *RunState) ChannelBuilds() uint64 {
	if st == nil {
		return 0
	}
	return st.ch.Builds()
}

// stream rebinds one named stream for a new run.
func (st *RunState) stream(slot **rng.RNG, r *rng.RNG, name string) *rng.RNG {
	*slot = r.StreamInto(*slot, name)
	return *slot
}

// bind points the state at (g, h, rec), rebuilding the network-derived
// structures only when the binding changed, and resets the per-run
// overlay state.
func (st *RunState) bind(g *graph.Graph, h *hier.Hierarchy, rec routing.Recovery, routes *routing.Cache) {
	if routes == nil {
		// Callers without a shared cache get a state-owned private one,
		// kept per bound graph: pooled runs keep their warm route/flood
		// memoization instead of starting cold every run (routing is pure
		// in the immutable graph, so reuse is invisible to results — the
		// §6 contract). Rebuilt on a graph change: a Cache is graph-bound.
		if st.privRoutes == nil || st.g != g {
			st.privRoutes = routing.NewCache()
		}
		routes = st.privRoutes
	}
	st.router.Reset(g, routes)
	rebuild := st.g != g || st.h != h || st.repairRec != rec
	st.view.Bind(h) // O(1) when h is unchanged; implies Reset
	if rebuild {
		st.g, st.h, st.repairRec = g, h, rec
		st.leafOff, st.leafIDs = buildLeafAdjFlat(g, h, st.leafOff, st.leafIDs)
		st.repairBase = sim.GrowInt32(st.repairBase, g.N())
		st.compScratch = sim.GrowInt32(st.compScratch, g.N())
		st.rebuildRepairBase(rec)
	}
	st.repair = st.repairBase
	st.repairDirty = false
}

// leafNbrs returns node i's in-leaf neighbour candidates.
func (st *RunState) leafNbrs(i int32) []int32 {
	return st.leafIDs[st.leafOff[i]:st.leafOff[i+1]]
}

// rebuildRepairBase computes the leaf-repair table relative to the base
// representatives (engine start state; see leafRepair for semantics).
func (st *RunState) rebuildRepairBase(rec routing.Recovery) {
	for _, sq := range st.h.Leaves() {
		st.repairLeafSquareInto(st.repairBase, sq, st.view.Rep(sq.ID), rec)
	}
}

// mutableRepair returns the run's writable repair table, copying the base
// on the run's first re-election (copy-on-write).
func (st *RunState) mutableRepair() []int32 {
	if !st.repairDirty {
		if cap(st.repairBuf) < len(st.repairBase) {
			st.repairBuf = make([]int32, len(st.repairBase))
		}
		st.repairBuf = st.repairBuf[:len(st.repairBase)]
		copy(st.repairBuf, st.repairBase)
		st.repair = st.repairBuf
		st.repairDirty = true
	}
	return st.repair
}

// repairLeafSquareInto (re)computes leaf sq's repair structure relative
// to representative rep into hops: members are re-labelled into in-leaf
// components, prior bridge assignments are cleared, and every component
// not containing the representative gets a fresh bridge (the component's
// smallest-index member, exchanging with the representative over a
// greedy-routed path). A takeover into a different in-leaf component
// moves the bridges, not just their route lengths. All scratch is
// state-owned and reused, so post-election rebuilds are allocation-free
// in steady state.
func (st *RunState) repairLeafSquareInto(hops []int32, sq *hier.Square, rep int32, rec routing.Recovery) {
	for _, m := range sq.Members {
		hops[m] = 0
	}
	if rep < 0 || len(sq.Members) <= 1 {
		return
	}
	// Label in-leaf components (BFS over leaf-restricted adjacency).
	comp := st.compScratch
	for _, m := range sq.Members {
		comp[m] = -1
	}
	next := int32(0)
	queue := st.queueScratch[:0]
	for _, m := range sq.Members {
		if comp[m] >= 0 {
			continue
		}
		comp[m] = next
		queue = append(queue[:0], m)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range st.leafNbrs(u) {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	st.queueScratch = queue
	if next == 1 {
		return // leaf internally connected
	}
	repComp := comp[rep]
	if cap(st.bridged) < int(next) {
		st.bridged = make([]bool, next)
	}
	bridged := st.bridged[:next]
	clear(bridged)
	for _, m := range sq.Members { // sorted: smallest index per component wins
		c := comp[m]
		if c == repComp || bridged[c] {
			continue
		}
		bridged[c] = true
		res := st.router.RouteToNode(m, rep, rec)
		if !res.Delivered {
			hops[m] = -1
			continue
		}
		hops[m] = int32(res.Hops)
	}
}

// buildLeafAdjFlat flattens the leaf-restricted adjacency into an
// offset-indexed pair (reusing the supplied buffers): node i's in-leaf
// neighbours are ids[off[i]:off[i+1]], in the graph's ascending neighbour
// order — identical content to the former per-node [][]int32 build,
// without its per-node allocations.
func buildLeafAdjFlat(g *graph.Graph, h *hier.Hierarchy, off, ids []int32) ([]int32, []int32) {
	n := g.N()
	off = sim.GrowInt32(off, n+1)
	total := int32(0)
	off[0] = 0
	for i := int32(0); int(i) < n; i++ {
		leaf := h.NodeLeaf[i]
		for _, v := range g.Neighbors(i) {
			if h.NodeLeaf[v] == leaf {
				total++
			}
		}
		off[i+1] = total
	}
	ids = sim.GrowInt32(ids, int(total))
	fill := int32(0)
	for i := int32(0); int(i) < n; i++ {
		leaf := h.NodeLeaf[i]
		for _, v := range g.Neighbors(i) {
			if h.NodeLeaf[v] == leaf {
				ids[fill] = v
				fill++
			}
		}
	}
	return off, ids
}
