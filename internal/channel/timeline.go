package channel

// Timeline is the clock of the time-realism layer (DESIGN.md §12).
// The delay and ARQ stages accumulate the latency of the delivery
// decision in flight through Add; the Medium's outermost stage, the
// Timed bracket, encloses every top-level Deliver* call and turns the
// accumulated latency into that delivery's completion time, decision
// time + latency. High tracks the latest completion so far; a run's sim
// time is the maximum of its final tick count and that high-water mark.
//
// Completions are not queued. A medium's time-dependent state is
// evaluated when the medium is queried, against the latest Advance (see
// Channel.Advance), and engines advance the medium to the current tick
// before every query, so advancing it first through the completion
// instants that fell due since the last tick could change nothing.
//
// An inactive timeline (transport layer off) is never consulted beyond a
// nil/flag check, so the zero-delay tick path stays allocation- and
// draw-identical to a run without the layer.
type Timeline struct {
	pend   float64
	high   float64
	active bool
}

// Reset re-initializes the timeline in place for a new run (pooled run
// states own one Timeline across runs). active selects whether the
// transport layer is live this run.
func (t *Timeline) Reset(active bool) {
	t.pend, t.high, t.active = 0, 0, active
}

// Active reports whether the time-realism layer is live. Safe on nil.
func (t *Timeline) Active() bool { return t != nil && t.active }

// Add accumulates transport latency for the delivery decision in flight.
// The transport stages call it; safe on nil (latency is then discarded).
func (t *Timeline) Add(d float64) {
	if t != nil && d > 0 {
		t.pend += d
	}
}

// begin opens a top-level delivery bracket, clearing latency left by any
// path that bypassed finish.
func (t *Timeline) begin() { t.pend = 0 }

// finish closes a top-level delivery bracket at decision time now,
// raising the high-water mark to the delivery's completion time. It
// returns the delivery's latency (0 when none accumulated).
func (t *Timeline) finish(now float64) float64 {
	lat := t.pend
	t.pend = 0
	if lat <= 0 {
		return 0
	}
	if at := now + lat; at > t.high {
		t.high = at
	}
	return lat
}

// DrainTo does nothing: completions are not queued (see Timeline), so
// none is ever due. It is kept, safe on nil, for callers that still
// drain before advancing the medium.
func (t *Timeline) DrainTo(now float64, advance func(uint64)) {}

// High returns the latest completion time so far.
func (t *Timeline) High() float64 {
	if t == nil {
		return 0
	}
	return t.high
}
