package obs

// tallyBuckets is the bucket count of a tally histogram: enough for the
// hop and latency bounds plus their +Inf buckets.
const tallyBuckets = max(len(HopBuckets), len(LatencyBuckets)) + 1

// Tally is one run's per-event metric counts: losses, recovery actions,
// churn transitions, long-range exchanges and the transport layer's
// retries and latencies. Its fields are plain integers an engine bumps
// without atomics; Scope.EndRun adds them to the shared instruments once,
// at run end (DESIGN.md §8). Each engine run state owns one Tally and
// zeroes it when a run starts; the radio medium's transport stages reach
// it through channel.Env. Every method is safe on a nil receiver, which
// discards the count — a medium built without a tally reports nothing.
type Tally struct {
	losses, lossCost         uint64
	reelections, resyncs     uint64
	crashes, revivals        uint64
	farExchanges             uint64
	retransmits, arqTimeouts uint64
	farHops                  tallyHist
	backoffWait, deliveryLat tallyHist
}

// tallyHist is a histogram's per-run share: a count per bucket of the
// histogram's bounds and the sum of the observations.
type tallyHist struct {
	n   [tallyBuckets]uint64
	sum float64
}

func (h *tallyHist) observe(upper []float64, v float64) {
	h.n[bucketIndex(upper, v)]++
	h.sum += v
}

// Reset zeroes the tally for a new run.
func (t *Tally) Reset() { *t = Tally{} }

// Loss records one lost data packet that paid `paid` transmissions
// before dying.
func (t *Tally) Loss(paid int) {
	if t == nil {
		return
	}
	t.losses++
	t.lossCost += uint64(paid)
}

// Reelection records one representative takeover.
func (t *Tally) Reelection() {
	if t == nil {
		return
	}
	t.reelections++
}

// Resync records one revived-node state resync.
func (t *Tally) Resync() {
	if t == nil {
		return
	}
	t.resyncs++
}

// Churn records one observed liveness transition.
func (t *Tally) Churn(revived bool) {
	if t == nil {
		return
	}
	if revived {
		t.revivals++
	} else {
		t.crashes++
	}
}

// FarExchange records one completed long-range exchange of the given hop
// cost (count and hop histogram).
func (t *Tally) FarExchange(hops int) {
	if t == nil {
		return
	}
	t.farExchanges++
	t.farHops.observe(HopBuckets[:], float64(hops))
}

// AddFarExchanges adds n completed long-range exchanges without hop
// detail: the round-structured engine counts its exchanges in its result
// and hands the total over at run end.
func (t *Tally) AddFarExchanges(n uint64) {
	if t == nil {
		return
	}
	t.farExchanges += n
}

// Retransmit records one ARQ retry sent after an ack timeout.
func (t *Tally) Retransmit() {
	if t == nil {
		return
	}
	t.retransmits++
}

// ARQTimeout records one ARQ ack timeout (an outstanding attempt was lost
// and the sender's retry timer expired).
func (t *Tally) ARQTimeout() {
	if t == nil {
		return
	}
	t.arqTimeouts++
}

// BackoffWait records the duration of one ARQ backoff wait.
func (t *Tally) BackoffWait(d float64) {
	if t == nil {
		return
	}
	t.backoffWait.observe(LatencyBuckets[:], d)
}

// DeliveryLatency records the transport latency of one timed delivery.
func (t *Tally) DeliveryLatency(d float64) {
	if t == nil {
		return
	}
	t.deliveryLat.observe(LatencyBuckets[:], d)
}
