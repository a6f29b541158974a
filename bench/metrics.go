package main

import "strings"

// metricDef names one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the sweeps sees, measured with
// tracing off. README.md explains each one, why none of them varies with
// how many of a grid's runs happen to hit their tick cap, and why the
// tick's cost is priced in iterations of the reference kernel.
var endToEnd = []metricDef{
	{Name: "tick_cost", Unit: "ref_iter", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// engines maps each sweep algorithm to its layer prefix.
var engines = []struct{ algo, layer string }{
	{"boyd", "gossip.boyd"},
	{"geographic", "gossip.geographic"},
	{"push-sum", "gossip.push-sum"},
	{"affine-hierarchical", "core.affine-hierarchical"},
	{"affine-async", "core.affine-async"},
}

// perLayer lists the traced run's metrics in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lower("geo.cellindex_s", "s"),
		lower("graph.build_s", "s"),
		lower("graph.connected_s", "s"),
		lower("graph.voronoi_s", "s"),
		lower("graph.bytes_per_node", "B"),
		lower("hier.build_s", "s"),
		lower("hier.bytes_per_node", "B"),
		lower("netstore.encode_s", "s"),
		lower("netstore.decode_s", "s"),
		lower("netstore.snapshot_mb", "MB"),
		higher("netstore.decode_mb_per_s", "MB/s"),
		higher("netstore.hit_frac", "frac"),
		lower("routing.route_lookups", "count"),
		lower("routing.flood_lookups", "count"),
		higher("routing.route_hit_frac", "frac"),
		higher("routing.flood_hit_frac", "frac"),
		lower("routing.route_hit_ns", "ns"),
		lower("routing.route_miss_ns", "ns"),
		lower("routing.flood_hit_ns", "ns"),
		lower("routing.flood_miss_ns", "ns"),
		lower("routing.point_ns", "ns"),
		lower("routing.recovered_frac", "frac"),
		lower("routing.est_s", "s"),
		lower("channel.hop_ns", "ns"),
		lower("channel.route_ns", "ns"),
		lower("channel.perfect_hop_ns", "ns"),
		lower("channel.losses", "count"),
		lower("channel.loss_tx_frac", "frac"),
		lower("channel.retransmissions", "count"),
		lower("channel.arq_timeouts", "count"),
		lower("channel.est_s", "s"),
	}
	for _, e := range engines {
		defs = append(defs,
			higher(e.layer+".tasks", "count"),
			lower(e.layer+".tte_ms_p50", "ms"),
			lower(e.layer+".tte_ms_ptail", "ms"),
			higher(e.layer+".tail_pct", "%"),
			lower(e.layer+".ticks", "count"),
			lower(e.layer+".tx_per_node", "count"),
			higher(e.layer+".converged_frac", "frac"),
			lower(e.layer+".ns_per_tick", "ns"),
			lower(e.layer+".update_ns", "ns"),
			lower(e.layer+".share", "frac"),
			higher(e.layer+".self_frac", "frac"))
		if strings.HasPrefix(e.layer, "core.") {
			defs = append(defs, lower(e.layer+".far_exchanges", "count"))
		}
	}
	return append(defs,
		higher("sweep.busy_frac", "frac"),
		lower("sweep.idle_s", "s"),
		lower("sweep.aggregate_ms", "ms"),
		lower("sweep.sink_ms", "ms"),
		higher("sweep.channel_pool_builds", "count"),
		lower("sweep.alloc_mb", "MB"),
		lower("sweep.gc_cycles", "count"),
		lower("explain.setup_s", "s"),
		lower("explain.engine_s", "s"),
		lower("explain.residual_frac", "frac"),
		lower("trace.overhead_frac", "frac"),
	)
}

// metricValue is one measured metric in a run's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a single run prints as the last line of
// its standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill copies values into r.Metrics for every def, in the def's unit; a
// def without a value reads 0 (an engine the workload does not run).
func (r *runResult) fill(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}
