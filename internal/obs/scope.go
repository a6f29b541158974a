package obs

// Metric name catalogue (see README "Observability"). Every engine
// metric carries a single constant `engine` label, resolved once at
// Scope construction so hot-loop reporting never touches label
// rendering.
const (
	MetricTransmissions    = "geogossip_transmissions_total"
	MetricRuns             = "geogossip_runs_total"
	MetricRunsConverged    = "geogossip_runs_converged_total"
	MetricTicks            = "geogossip_ticks_total"
	MetricLosses           = "geogossip_losses_total"
	MetricLossTransmission = "geogossip_loss_transmissions_total"
	MetricReelections      = "geogossip_reelections_total"
	MetricResyncs          = "geogossip_resyncs_total"
	MetricChurnCrashes     = "geogossip_churn_crashes_total"
	MetricChurnRevivals    = "geogossip_churn_revivals_total"
	MetricFarExchanges     = "geogossip_far_exchanges_total"
	MetricFarHops          = "geogossip_far_exchange_hops"
	MetricFinalError       = "geogossip_run_final_error"

	// Transport-reliability layer (DESIGN.md §12): ARQ retry traffic and
	// the delivery-latency distribution of the radio medium's
	// time-realism stages. All engine-labelled; zero unless the run's
	// fault spec has arq/delay components.
	MetricRetransmissions = "geogossip_arq_retransmissions_total"
	MetricARQTimeouts     = "geogossip_arq_timeouts_total"
	MetricARQBackoffWait  = "geogossip_arq_backoff_wait"
	MetricDeliveryLatency = "geogossip_delivery_latency"

	// Sweep-level gauges, maintained by the sweep engine when a registry
	// is attached (scrape-time snapshots, not part of Flatten).
	MetricSweepTasksTotal   = "geogossip_sweep_tasks_total"
	MetricSweepTasksDone    = "geogossip_sweep_tasks_done"
	MetricRouteCacheLookups = "geogossip_route_cache_lookups"
	MetricChannelPoolBuilds = "geogossip_channel_pool_builds"

	// Network snapshot store gauges (internal/netstore), maintained by
	// the sweep engine when both a registry and a store are attached.
	MetricNetstoreHits        = "geogossip_netstore_hits"
	MetricNetstoreMisses      = "geogossip_netstore_misses"
	MetricNetstoreStoredBytes = "geogossip_netstore_stored_bytes"
	MetricNetstoreLoadSeconds = "geogossip_netstore_load_seconds"

	// Distributed-sweep gauges, maintained by the coordinator
	// (internal/sweep/dist) when a registry is attached. All scrape-time
	// state: worker membership, lease churn and heartbeat liveness are
	// scheduling facts, so none of them are part of Flatten — the
	// deterministic engine counters arrive separately as per-task deltas
	// summed into SweepReport.Metrics.
	MetricDistWorkers         = "geogossip_dist_workers"
	MetricDistLeasesActive    = "geogossip_dist_leases_active"
	MetricDistLeasesReissued  = "geogossip_dist_leases_reissued"
	MetricDistWorkerTasksDone = "geogossip_dist_worker_tasks_done"
	MetricDistHeartbeatAge    = "geogossip_dist_worker_heartbeat_age_seconds"
	MetricDistBufferedResults = "geogossip_dist_buffered_results"
)

// HopBuckets are the far-exchange hop-count histogram bounds: greedy
// routes on G(n, r) run a few to a few hundred hops at simulable sizes.
var HopBuckets = [...]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// ErrBuckets are the final relative-error histogram bounds, one decade
// per bucket across the accuracy range experiments target.
var ErrBuckets = []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// LatencyBuckets are the delivery-latency and ARQ-backoff histogram
// bounds, in engine time units (ticks): per-hop delays are O(1) ticks,
// multi-hop routes with retries reach the hundreds.
var LatencyBuckets = [...]float64{0.25, 1, 4, 16, 64, 256, 1024, 4096}

// Scope is the label-free set of shared instruments one engine reports
// into: every instrument is resolved (with its constant engine label) at
// construction. A run reports through one call, EndRun, which adds the
// run's totals and its Tally of per-event counts with atomics; nothing
// touches a Scope per event or per tick. EndRun is safe on a nil
// receiver and costs one branch there.
type Scope struct {
	txNear, txFar, txControl, txFlood *Counter
	runs, convergedRuns, ticks        *Counter
	losses, lossCost                  *Counter
	reelections, resyncs              *Counter
	crashes, revivals                 *Counter
	farExchanges                      *Counter
	farHops                           *Histogram
	finalErr                          *Histogram
	retransmits, arqTimeouts          *Counter
	backoffWait                       *Histogram
	deliveryLat                       *Histogram
}

// Scope returns the (memoized) reporting scope for one engine label.
// Scopes are shared: concurrent runs of the same engine accumulate into
// the same instruments, which is safe (atomics) and deterministic for
// everything Flatten exposes (integer sums commute).
func (r *Registry) Scope(engine string) *Scope {
	r.mu.Lock()
	s := r.scopes[engine]
	r.mu.Unlock()
	if s != nil {
		return s
	}
	s = &Scope{
		txNear:        r.Counter(MetricTransmissions, "Transmissions by engine and traffic category.", "engine", engine, "category", "near"),
		txFar:         r.Counter(MetricTransmissions, "Transmissions by engine and traffic category.", "engine", engine, "category", "far"),
		txControl:     r.Counter(MetricTransmissions, "Transmissions by engine and traffic category.", "engine", engine, "category", "control"),
		txFlood:       r.Counter(MetricTransmissions, "Transmissions by engine and traffic category.", "engine", engine, "category", "flood"),
		runs:          r.Counter(MetricRuns, "Completed runs by engine.", "engine", engine),
		convergedRuns: r.Counter(MetricRunsConverged, "Completed runs that reached their error target.", "engine", engine),
		ticks:         r.Counter(MetricTicks, "Clock ticks (far exchanges for the round-structured engine).", "engine", engine),
		losses:        r.Counter(MetricLosses, "Lost data packets (channel fault decisions).", "engine", engine),
		lossCost:      r.Counter(MetricLossTransmission, "Transmissions paid for packets that were then lost.", "engine", engine),
		reelections:   r.Counter(MetricReelections, "Representative re-elections performed by recovery.", "engine", engine),
		resyncs:       r.Counter(MetricResyncs, "Revived-node state resyncs performed by recovery.", "engine", engine),
		crashes:       r.Counter(MetricChurnCrashes, "Observed churn crash transitions.", "engine", engine),
		revivals:      r.Counter(MetricChurnRevivals, "Observed churn revival transitions.", "engine", engine),
		farExchanges:  r.Counter(MetricFarExchanges, "Long-range exchanges.", "engine", engine),
		farHops:       r.Histogram(MetricFarHops, "Hop cost of individual long-range exchanges.", HopBuckets[:], "engine", engine),
		finalErr:      r.Histogram(MetricFinalError, "Final relative error of completed runs.", ErrBuckets, "engine", engine),
		retransmits:   r.Counter(MetricRetransmissions, "ARQ retries sent after an ack timeout.", "engine", engine),
		arqTimeouts:   r.Counter(MetricARQTimeouts, "ARQ ack timeouts (lost attempts noticed by the sender).", "engine", engine),
		backoffWait:   r.Histogram(MetricARQBackoffWait, "ARQ backoff waits in engine time units (timeout x backoff^k + jitter).", LatencyBuckets[:], "engine", engine),
		deliveryLat:   r.Histogram(MetricDeliveryLatency, "Transport latency of timed deliveries in engine time units.", LatencyBuckets[:], "engine", engine),
	}
	r.mu.Lock()
	if prior := r.scopes[engine]; prior != nil {
		s = prior // lost a registration race; instruments are shared anyway
	} else {
		r.scopes[engine] = s
	}
	r.mu.Unlock()
	return s
}

// EndRun flushes one finished run: its tally of per-event counts, then
// per-category transmissions, tick count, run/convergence counters, and
// the final-error histogram. Engines call it exactly once per run, from
// result assembly, so the shared instruments see a few dozen atomic adds
// per run and none per event. A nil tally flushes the run totals alone.
func (s *Scope) EndRun(t *Tally, near, far, control, flood, ticks uint64, converged bool, finalErr float64) {
	if s == nil {
		return
	}
	if t != nil {
		s.flush(t)
	}
	s.txNear.Add(near)
	s.txFar.Add(far)
	s.txControl.Add(control)
	s.txFlood.Add(flood)
	s.ticks.Add(ticks)
	s.runs.Inc()
	if converged {
		s.convergedRuns.Inc()
	}
	s.finalErr.Observe(finalErr)
}

// flush adds a run's tally to the shared instruments.
func (s *Scope) flush(t *Tally) {
	addCount(s.losses, t.losses)
	addCount(s.lossCost, t.lossCost)
	addCount(s.reelections, t.reelections)
	addCount(s.resyncs, t.resyncs)
	addCount(s.crashes, t.crashes)
	addCount(s.revivals, t.revivals)
	addCount(s.farExchanges, t.farExchanges)
	addCount(s.retransmits, t.retransmits)
	addCount(s.arqTimeouts, t.arqTimeouts)
	s.farHops.add(&t.farHops)
	s.backoffWait.add(&t.backoffWait)
	s.deliveryLat.add(&t.deliveryLat)
}

// addCount adds n to c, skipping the atomic when there is nothing to add.
func addCount(c *Counter, n uint64) {
	if n > 0 {
		c.Add(n)
	}
}
