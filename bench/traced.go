package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"geogossip/internal/obs"
	"geogossip/internal/sweep"
)

// traceRun is one traced run. It runs the grid twice — untraced through
// geogossip.Sweep, then traced through sweep.Executor — and fails unless
// both sinks hash the same and the traced tasks' metric deltas sum to the
// reference's SweepReport.Metrics. It then rebuilds the networks layer by
// layer, micro-benchmarks routing, channel and each engine's update on the
// largest network, and attributes the traced pass's worker time to them.
func traceRun(w *workload, c *config, tr *tracer) (runResult, []string, error) {
	st := &stores{c: c, mode: w.store}
	release, err := st.prepareWarm(w)
	if err != nil {
		return runResult{}, nil, err
	}
	defer release()
	ref, err := runReference(w, c, st)
	if err != nil {
		return runResult{}, nil, err
	}
	store, _, done, err := st.open()
	if err != nil {
		return runResult{}, nil, err
	}
	p := runExecPass(w, c, store, tr, nil)
	hitFrac := 0.0
	if store != nil {
		s := store.Stats()
		hitFrac = ratio(float64(s.Hits), float64(s.Hits+s.Misses))
	}
	done()

	digest, problems := p.check(w)
	if digest != ref.digest {
		problems = append(problems, fmt.Sprintf("traced sink digest %s, untraced %s", digest, ref.digest))
	}
	sum := p.counters()
	if msg, ok := metricsAgree(sum, ref.rep.Metrics); !ok {
		problems = append(problems, "traced metric deltas disagree with SweepReport.Metrics at "+msg)
	}

	rs, err := replay(w, c, tr, p.results)
	if err != nil {
		return runResult{}, nil, err
	}
	if rs.graphBytes != float64(p.setup.GraphBytes) || rs.hierBytes != float64(p.setup.HierBytes) {
		problems = append(problems, fmt.Sprintf("replayed networks hold %v+%v bytes, the pass's %d+%d",
			rs.graphBytes, rs.hierBytes, p.setup.GraphBytes, p.setup.HierBytes))
	}
	// The replay leaves hundreds of MB of garbage at scale; collect it now
	// so no GC cycle runs inside the micro-benchmarks.
	runtime.GC()
	micro := tr.begin(0, "micro", map[string]any{"n": rs.g.N()})
	rc, err := routingMicro(rs.g, rs.h, tr, micro)
	if err != nil {
		return runResult{}, nil, err
	}
	cc, err := channelMicro(w, rs.g, rs.h, rc.legHops, tr, micro)
	if err != nil {
		return runResult{}, nil, err
	}
	medium, err := w.medium()
	if err != nil {
		return runResult{}, nil, err
	}

	v := map[string]float64{
		"geo.cellindex_s":          rs.cellIndex.Seconds(),
		"graph.build_s":            rs.build.Seconds(),
		"graph.connected_s":        rs.connected.Seconds(),
		"graph.voronoi_s":          rs.voronoi.Seconds(),
		"graph.bytes_per_node":     ratio(rs.graphBytes, rs.nodes),
		"hier.build_s":             rs.hierBuild.Seconds(),
		"hier.bytes_per_node":      ratio(rs.hierBytes, rs.nodes),
		"netstore.encode_s":        rs.encode.Seconds(),
		"netstore.decode_s":        rs.decode.Seconds(),
		"netstore.snapshot_mb":     rs.snapshotBytes / (1 << 20),
		"netstore.decode_mb_per_s": ratio(rs.snapshotBytes/(1<<20), rs.decode.Seconds()),
		"netstore.hit_frac":        hitFrac,
		"routing.route_hit_ns":     rc.routeHit,
		"routing.route_miss_ns":    rc.routeMiss,
		"routing.flood_hit_ns":     rc.floodHit,
		"routing.flood_miss_ns":    rc.floodMiss,
		"routing.point_ns":         rc.point,
		"routing.recovered_frac":   rc.recovered,
		"channel.hop_ns":           cc.hop,
		"channel.route_ns":         cc.route,
		"channel.perfect_hop_ns":   cc.perfect,
		"channel.losses":           sumMetric(sum, obs.MetricLosses),
		"channel.retransmissions":  sumMetric(sum, obs.MetricRetransmissions),
		"channel.arq_timeouts":     sumMetric(sum, obs.MetricARQTimeouts),
		"channel.loss_tx_frac":     ratio(sumMetric(sum, obs.MetricLossTransmission), sumMetric(sum, obs.MetricTransmissions)),
	}
	routes := p.ex.RouteStats()
	v["routing.route_lookups"] = float64(routes.RouteHits + routes.RouteMisses)
	v["routing.flood_lookups"] = float64(routes.FloodHits + routes.FloodMisses)
	v["routing.route_hit_frac"] = routes.RouteHitRate()
	v["routing.flood_hit_frac"] = routes.FloodHitRate()

	// Per engine: task times from the traced pass, counts from its
	// metric deltas, routing priced from its phase's cache counters (and,
	// for geographic, its far hops as uncached greedy-walk steps), and the
	// channel priced at what each delivery costs beyond the perfect
	// medium, whose cost the update micro-benchmark already carries (so
	// a perfect-medium workload's channel estimate is 0).
	// Deliveries are counted exactly by the timeline's latency histogram
	// when the medium has a transport layer, else taken as one per tick
	// plus one per far exchange.
	var spanTotal, routingTotal, channelTotal, engineTotal float64
	taskMS := make(map[string][]float64)
	spanOf := make(map[string]float64)
	txOf := make(map[string]float64)
	nodesOf := make(map[string]float64)
	convergedOf := make(map[string]float64)
	for i, r := range p.results {
		taskMS[r.Algorithm] = append(taskMS[r.Algorithm], float64(p.taskTime[i].Nanoseconds())/1e6)
		spanOf[r.Algorithm] += p.taskTime[i].Seconds()
		spanTotal += p.taskTime[i].Seconds()
		if r.Error == "" {
			txOf[r.Algorithm] += float64(r.Transmissions)
			nodesOf[r.Algorithm] += float64(r.N)
		}
		if r.Converged {
			convergedOf[r.Algorithm]++
		}
	}
	for _, ph := range p.phases {
		e := layerOf(ph.algo)
		ticks := sum[engineKey(obs.MetricTicks, ph.algo)]
		far := sum[engineKey(obs.MetricFarExchanges, ph.algo)]
		routing := rc.cached(ph.routes)
		routeLegs := far
		if ph.algo == sweep.AlgoGeographic {
			routing += rc.greedy(sum[txKey("far", ph.algo)], ticks)
			routeLegs = 2 * far
		}
		calls := ticks + far
		if medium.HasTransport() {
			calls = sum[engineKey(obs.MetricDeliveryLatency+"_count", ph.algo)]
		}
		var chanS float64
		if !medium.IsZero() {
			chanS = (routeLegs*max(0, cc.route-cc.perfect) + max(0, calls-routeLegs)*max(0, cc.hop-cc.perfect)) / 1e9
		}
		var update float64
		tr.timed(micro, "engine."+ph.algo, nil, func() { update, err = updateMicro(ph.algo, w.ispec.Field, rs.g, rs.h, w.ispec.TargetErr, rc) })
		if err != nil {
			return runResult{}, nil, err
		}
		routingTotal += routing
		channelTotal += chanS
		engineTotal += ticks * update / 1e9

		span := spanOf[ph.algo]
		ms := taskMS[ph.algo]
		tail := tailPct(len(ms))
		v[e+".tasks"] = float64(len(ms))
		v[e+".tte_ms_p50"] = median(ms)
		v[e+".tte_ms_ptail"] = quantile(ms, float64(tail)/100)
		v[e+".tail_pct"] = float64(tail)
		v[e+".ticks"] = ticks
		v[e+".tx_per_node"] = ratio(txOf[ph.algo], nodesOf[ph.algo])
		v[e+".converged_frac"] = ratio(convergedOf[ph.algo], float64(len(ms)))
		v[e+".ns_per_tick"] = ratio(span*1e9, ticks)
		v[e+".update_ns"] = update
		v[e+".share"] = ratio(span, spanTotal)
		v[e+".self_frac"] = ratio(span-routing-chanS, span)
		v[e+".far_exchanges"] = far
	}
	tr.end(micro)
	v["routing.est_s"] = routingTotal
	v["channel.est_s"] = channelTotal

	agg := time.Now()
	sweep.Aggregate(p.results)
	v["sweep.aggregate_ms"] = float64(time.Since(agg).Nanoseconds()) / 1e6
	capacity := p.wall.Seconds() * float64(c.workers)
	busy := tr.total("task")
	setup := (p.setup.BuildTime + p.setup.LoadTime).Seconds()
	v["sweep.busy_frac"] = ratio(busy, capacity)
	v["sweep.idle_s"] = capacity - busy
	v["sweep.sink_ms"] = ref.sinkMS
	v["sweep.channel_pool_builds"] = float64(p.ex.ChannelBuilds())
	v["sweep.alloc_mb"] = ref.allocMB
	v["sweep.gc_cycles"] = ref.gcs
	v["explain.setup_s"] = setup
	v["explain.engine_s"] = engineTotal
	v["explain.residual_frac"] = 1 - ratio(setup+engineTotal+routingTotal+channelTotal+capacity-busy, capacity)
	v["trace.overhead_frac"] = ratio(p.wall.Seconds(), ref.wall.Seconds()) - 1
	for k, x := range v {
		v[k] = finite(x)
	}

	out := runResult{Attempted: len(p.results), Correct: len(problems) == 0}
	for _, r := range p.results {
		if r.Error != "" {
			out.Failed++
		}
	}
	out.fill(perLayer, v)
	return out, problems, nil
}

// layerOf returns an engine's layer prefix.
func layerOf(algo string) string {
	for _, e := range engines {
		if e.algo == algo {
			return e.layer
		}
	}
	return algo
}

// sumMetric adds every series of one metric family across labels.
func sumMetric(m map[string]float64, family string) float64 {
	var s float64
	for k, v := range m {
		if k == family || strings.HasPrefix(k, family+"{") {
			s += v
		}
	}
	return s
}
