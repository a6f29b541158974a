package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"geogossip/internal/channel"
	"geogossip/internal/core"
	"geogossip/internal/geo"
	"geogossip/internal/gossip"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/metrics"
	"geogossip/internal/netstore"
	"geogossip/internal/rng"
	"geogossip/internal/routing"
	"geogossip/internal/sim"
	"geogossip/internal/sweep"
)

// replayStats is the set-up stack measured layer by layer: every
// distinct network of the traced pass rebuilt from its recorded seed
// with one span per layer call.
type replayStats struct {
	cellIndex, build, connected, voronoi, hierBuild, encode, decode time.Duration

	nodes, graphBytes, hierBytes, snapshotBytes float64
	// g and h are the first network of the workload's largest n, which
	// the micro-benchmarks run on.
	g *graph.Graph
	h *hier.Hierarchy
}

// replay rebuilds each distinct network the pass ran on, in the order
// the sweep's construction does it: cell index (graph.BuildWorkers builds
// its own; this one is timed alone), CSR graph, connectivity check,
// hierarchy, then the store's encode and decode, then the Voronoi areas
// the first geographic task on a network pays for.
func replay(w *workload, c *config, tr *tracer, results []sweep.TaskResult) (*replayStats, error) {
	type netID struct {
		n     int
		seed  uint64
		shape string
	}
	var nets []netID
	seen := make(map[netID]bool)
	for _, r := range results {
		if id := (netID{r.N, r.NetSeed, r.Hierarchy}); r.Error == "" && !seen[id] {
			seen[id] = true
			nets = append(nets, id)
		}
	}
	s := &replayStats{}
	root := tr.begin(0, "replay", nil)
	defer tr.end(root)
	for _, id := range nets {
		nid := tr.begin(root, "network", map[string]any{"n": id.n, "net_seed": id.seed, "hierarchy": id.shape})
		pts := graph.UniformPoints(id.n, rng.New(id.seed).Stream("points"))
		radius := graph.ConnectivityRadius(id.n, w.ispec.RadiusMultiplier)
		maxDepth := 0
		if id.shape == sweep.HierarchyFlat {
			maxDepth = 1
		}
		var (
			g   *graph.Graph
			h   *hier.Hierarchy
			err error
			buf bytes.Buffer
		)
		s.cellIndex += tr.timed(nid, "geo.cellindex", nil, func() { _, err = geo.NewCellIndex(pts, geo.UnitSquare(), min(radius, 0.5)) })
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		s.build += tr.timed(nid, "graph.build", nil, func() { g, err = graph.BuildWorkers(pts, radius, c.workers) })
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		var connected bool
		s.connected += tr.timed(nid, "graph.connected", nil, func() { connected = g.IsConnected() })
		if !connected {
			return nil, fmt.Errorf("replay: network n=%d seed=%d is not connected, but the sweep ran on it", id.n, id.seed)
		}
		s.hierBuild += tr.timed(nid, "hier.build", nil, func() { h, err = hier.Build(pts, hier.Config{Workers: c.workers, MaxDepth: maxDepth}) })
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		s.nodes += float64(id.n)
		s.graphBytes += float64(g.Footprint().Total())
		s.hierBytes += float64(h.Footprint())
		meta := netstore.Meta{N: id.n, Radius: radius, MaxDepth: maxDepth}
		s.encode += tr.timed(nid, "netstore.encode", nil, func() { err = netstore.Encode(&buf, meta, g, h) })
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		s.snapshotBytes += float64(buf.Len())
		s.decode += tr.timed(nid, "netstore.decode", nil, func() { _, _, _, err = netstore.Decode(bytes.NewReader(buf.Bytes()), c.workers) })
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		s.voronoi += tr.timed(nid, "graph.voronoi", nil, func() { g.VoronoiAreas() })
		tr.end(nid)
		if s.g == nil || id.n > s.g.N() {
			s.g, s.h = g, h
		}
	}
	if s.g == nil {
		return nil, fmt.Errorf("replay: no task ran on a network")
	}
	return s, nil
}

// microTime is how long each micro-benchmark repeats its batch.
const microTime = 20 * time.Millisecond

// perOp repeats batch until microTime has passed and returns nanoseconds
// per operation; batch returns how many operations it did.
func perOp(batch func() int) float64 {
	start := time.Now()
	ops := 0
	for ops == 0 || time.Since(start) < microTime {
		ops += batch()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// routeCosts are the routing layer's unit costs on one network.
type routeCosts struct {
	routeHit, routeMiss, floodHit, floodMiss float64 // ns per lookup
	point                                    float64 // ns per RouteToPoint
	// scan is the ns one step of a greedy walk costs: a scan of the
	// current node's neighbours. A walk of h hops makes h+1 scans.
	scan      float64
	recovered float64 // share of rep routes that needed BFS recovery
	legHops   float64 // mean hops of a rep route
}

// greedy prices a geographic run's uncached routing, in seconds: its far
// hops plus one final scan per walk, two walks (out and back) per tick.
func (rc routeCosts) greedy(farHops, ticks float64) float64 {
	return (farHops + 2*ticks) * rc.scan / 1e9
}

// cached prices a run's route/flood cache traffic, in seconds.
func (rc routeCosts) cached(s routing.CacheStats) float64 {
	return (float64(s.RouteHits)*rc.routeHit + float64(s.RouteMisses)*rc.routeMiss +
		float64(s.FloodHits)*rc.floodHit + float64(s.FloodMisses)*rc.floodMiss) / 1e9
}

type repPair struct{ a, b int32 }

// repPairs lists the representative routes the hierarchy engines take:
// each square's rep to each child's rep, and each child's rep to its
// next sibling's.
func repPairs(h *hier.Hierarchy) []repPair {
	var out []repPair
	for _, sq := range h.Squares {
		for i, c := range sq.Children {
			rc := h.Squares[c].Rep
			if rc < 0 {
				continue
			}
			if sq.Rep >= 0 && sq.Rep != rc {
				out = append(out, repPair{sq.Rep, rc})
			}
			if i > 0 {
				if rb := h.Squares[sq.Children[i-1]].Rep; rb >= 0 && rb != rc {
					out = append(out, repPair{rb, rc})
				}
			}
		}
	}
	return out
}

// routingMicro measures Router.RouteToNode on the hierarchy's rep pairs
// and Router.Flood on its leaves, each through a warm NewCache (hit) and
// through NoCache (miss), plus RouteToPoint between random nodes and
// positions — the geographic path, which is never cached.
func routingMicro(g *graph.Graph, h *hier.Hierarchy, tr *tracer, parent int) (routeCosts, error) {
	var rc routeCosts
	pairs := repPairs(h)
	var leaves []*hier.Square
	for _, sq := range h.Leaves() {
		if sq.Rep >= 0 {
			leaves = append(leaves, sq)
		}
	}
	if len(pairs) == 0 || len(leaves) == 0 {
		return rc, fmt.Errorf("routing micro: the hierarchy has no rep pairs")
	}
	routes := func(rt *routing.Router) func() int {
		return func() int {
			for _, p := range pairs {
				rt.RouteToNode(p.a, p.b, routing.RecoveryBFS)
			}
			return len(pairs)
		}
	}
	floods := func(rt *routing.Router) func() int {
		return func() int {
			for _, sq := range leaves {
				rt.Flood(sq.Rep, sq.Rect)
			}
			return len(leaves)
		}
	}
	cold := routing.NewRouter(g, routing.NoCache())
	var hops, recovered float64
	for _, p := range pairs {
		r := cold.RouteToNode(p.a, p.b, routing.RecoveryBFS)
		hops += float64(r.Hops)
		if r.Recovered {
			recovered++
		}
	}
	rc.legHops = hops / float64(len(pairs))
	rc.recovered = recovered / float64(len(pairs))
	warm := routing.NewRouter(g, routing.NewCache())
	routes(warm)()
	floods(warm)()
	tr.timed(parent, "routing.route_miss", nil, func() { rc.routeMiss = perOp(routes(cold)) })
	tr.timed(parent, "routing.route_hit", nil, func() { rc.routeHit = perOp(routes(warm)) })
	tr.timed(parent, "routing.flood_miss", nil, func() { rc.floodMiss = perOp(floods(cold)) })
	tr.timed(parent, "routing.flood_hit", nil, func() { rc.floodHit = perOp(floods(warm)) })

	r := rng.New(1)
	srcs := make([]int32, 1024)
	targets := make([]geo.Point, len(srcs))
	for i := range srcs {
		srcs[i] = int32(r.IntN(g.N()))
		targets[i] = geo.Pt(r.Float64(), r.Float64())
	}
	var pointHops float64
	for i := range srcs {
		pointHops += float64(cold.RouteToPoint(srcs[i], targets[i]).Hops)
	}
	tr.timed(parent, "routing.point", nil, func() {
		rc.point = perOp(func() int {
			for i := range srcs {
				cold.RouteToPoint(srcs[i], targets[i])
			}
			return len(srcs)
		})
	})
	rc.scan = ratio(rc.point, pointHops/float64(len(srcs))+1)
	return rc, nil
}

// chanCosts are the channel layer's unit costs, in ns per delivery.
type chanCosts struct{ hop, route, perfect float64 }

// channelMicro builds the workload's medium with channel.Spec.Build over
// a Timeline and measures one engine tick's worth of channel work per
// delivery — drain due completions, advance, deliver — for single-hop
// packets between neighbours and for rep-route legs of the mean length,
// then the same loop over the perfect medium.
func channelMicro(w *workload, g *graph.Graph, h *hier.Hierarchy, legHops float64, tr *tracer, parent int) (chanCosts, error) {
	var cc chanCosts
	spec, err := w.medium()
	if err != nil {
		return cc, err
	}
	r := rng.New(2)
	pkts := make([]channel.Packet, 1024)
	for i := range pkts {
		src := int32(r.IntN(g.N()))
		dst := src
		if nb := g.Neighbors(src); len(nb) > 0 {
			dst = nb[r.IntN(len(nb))]
		}
		pkts[i] = channel.Packet{Src: src, Dst: dst, SrcPos: g.Point(src), DstPos: g.Point(dst)}
	}
	deliveries := func(ch channel.Channel, tl *channel.Timeline, hops int) func() int {
		var now uint64
		advance := ch.Advance
		return func() int {
			for _, p := range pkts {
				now++
				tl.DrainTo(float64(now), advance)
				ch.Advance(now)
				p.Now, p.Hops = now, hops
				if hops == 1 {
					ch.DeliverHop(p)
				} else {
					ch.DeliverRoute(p)
				}
			}
			return len(pkts)
		}
	}
	build := func() (channel.Channel, *channel.Timeline, error) {
		tl := &channel.Timeline{}
		tl.Reset(spec.HasTransport())
		ch, err := spec.Build(g.N(), channel.Env{Points: g.Points(), Reps: h.Reps(), HubOrder: g.ByDegreeDesc(), Timeline: tl}, rng.New(3), rng.New(4))
		return ch, tl, err
	}
	ch, tl, err := build()
	if err != nil {
		return cc, fmt.Errorf("channel micro: %w", err)
	}
	tr.timed(parent, "channel.hop", nil, func() { cc.hop = perOp(deliveries(ch, tl, 1)) })
	if ch, tl, err = build(); err != nil {
		return cc, fmt.Errorf("channel micro: %w", err)
	}
	legs := max(2, int(math.Round(legHops)))
	tr.timed(parent, "channel.route", nil, func() { cc.route = perOp(deliveries(ch, tl, legs)) })
	tr.timed(parent, "channel.perfect_hop", nil, func() { cc.perfect = perOp(deliveries(channel.Perfect{}, nil, 1)) })
	return cc, nil
}

// Tick caps of the update micro-benchmark: long enough to reach the
// steady state a sweep task spends most of its ticks in.
const (
	microTicks    = 1 << 22
	microGeoTicks = 1 << 16 // a geographic tick routes twice across the network
)

// updateMicro runs one engine on the network over the perfect medium,
// from the workload's initial field, and returns its nanoseconds per tick with the routing it did priced out by
// the unit costs: the per-tick cost of the engine's own update, perfect
// channel calls included. Tick-driven engines stop at a tick cap; the
// round-structured recursive engine runs to the workload's target, its
// ticks being far exchanges.
func updateMicro(algo, field string, g *graph.Graph, h *hier.Hierarchy, target float64, rc routeCosts) (float64, error) {
	x0 := make([]float64, g.N())
	fieldRNG := rng.New(1)
	for i := range x0 {
		if field == sweep.FieldGaussian {
			x0[i] = fieldRNG.NormFloat64()
		} else {
			p := g.Point(int32(i))
			x0[i] = 10*p.X + math.Sin(7*p.Y)
		}
	}
	x := make([]float64, len(x0))
	var (
		gs     gossip.RunState
		cs     core.RunState
		cache  = routing.NewCache()
		ticks  float64
		routed float64 // seconds of routing inside the runs
	)
	stop := sim.StopRule{MaxTicks: microTicks}
	start := time.Now()
	for rep := uint64(1); rep == 1 || time.Since(start) < 2*microTime; rep++ {
		copy(x, x0)
		r := rng.New(rep)
		before := cache.Stats()
		var (
			res *metrics.Result
			err error
		)
		switch algo {
		case sweep.AlgoBoyd:
			res, err = gossip.RunBoyd(g, x, gossip.Options{Stop: stop, State: &gs}, r)
		case sweep.AlgoPushSum:
			res, err = gossip.RunPushSum(g, x, gossip.Options{Stop: stop, State: &gs}, r)
		case sweep.AlgoGeographic:
			res, err = gossip.RunGeographic(g, x, gossip.GeoOptions{Options: gossip.Options{Stop: sim.StopRule{MaxTicks: microGeoTicks}, State: &gs}}, r)
			if err == nil {
				routed += rc.greedy(float64(res.TransmissionsByCategory["far"]), float64(res.Ticks))
			}
		case sweep.AlgoAsync:
			var ar *core.AsyncResult
			ar, err = core.RunAsync(g, h, x, core.AsyncOptions{Eps: target, RoundsFactor: 2, Stop: stop, Routes: cache, State: &cs}, r)
			if err == nil {
				res = ar.Result
			}
		case sweep.AlgoAffine:
			var rr *core.Result
			rr, err = core.RunRecursive(g, h, x, core.RecursiveOptions{Eps: target, Routes: cache, State: &cs}, r)
			if err == nil {
				res = rr.Result
			}
		default:
			return 0, fmt.Errorf("update micro: unknown engine %q", algo)
		}
		if err != nil {
			return 0, fmt.Errorf("update micro %s: %w", algo, err)
		}
		ticks += float64(res.Ticks)
		routed += rc.cached(cacheDelta(cache.Stats(), before))
	}
	return ratio(time.Since(start).Seconds()-routed, ticks) * 1e9, nil
}

// cacheDelta is the route/flood cache traffic between two snapshots.
func cacheDelta(after, before routing.CacheStats) routing.CacheStats {
	return routing.CacheStats{
		RouteHits: after.RouteHits - before.RouteHits, RouteMisses: after.RouteMisses - before.RouteMisses,
		FloodHits: after.FloodHits - before.FloodHits, FloodMisses: after.FloodMisses - before.FloodMisses,
	}
}
