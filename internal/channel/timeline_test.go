package channel

import (
	"testing"

	"geogossip/internal/obs"
	"geogossip/internal/rng"
)

func TestTimelineFinishSchedulesAndTracksHigh(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	if !tl.Active() {
		t.Fatal("reset-active timeline not active")
	}
	tl.begin()
	tl.Add(1.5)
	tl.Add(2) // latency accumulates across wrappers
	tl.Add(0) // zero and negative contributions are discarded
	tl.Add(-3)
	if got := tl.finish(10); got != 3.5 {
		t.Fatalf("finish latency %v, want 3.5", got)
	}
	if tl.High() != 13.5 {
		t.Fatalf("after finish: high %v, want 13.5", tl.High())
	}
	// A bracket with no accumulated latency completes nothing, however
	// late its decision time.
	tl.begin()
	if got := tl.finish(20); got != 0 {
		t.Fatalf("empty bracket latency %v, want 0", got)
	}
	if tl.High() != 13.5 {
		t.Fatalf("empty bracket moved high to %v", tl.High())
	}
	// An earlier completion never lowers the high-water mark.
	tl.begin()
	tl.Add(0.25)
	tl.finish(1)
	if tl.High() != 13.5 {
		t.Fatalf("high regressed to %v", tl.High())
	}
}

func TestTimelineNilAndInactiveAreSafe(t *testing.T) {
	var nilTL *Timeline
	if nilTL.Active() {
		t.Fatal("nil timeline active")
	}
	nilTL.Add(5)
	nilTL.DrainTo(100, func(uint64) { t.Fatal("nil timeline drained an event") })
	if nilTL.High() != 0 {
		t.Fatal("nil timeline reported state")
	}
	var tl Timeline
	tl.Reset(false)
	if tl.Active() {
		t.Fatal("inactive timeline reported active")
	}
}

func TestTimelineResetClearsState(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	for i := 0; i < 64; i++ {
		tl.begin()
		tl.Add(float64(i) + 0.5)
		tl.finish(float64(i))
	}
	tl.Add(2) // latency of a bracket left open
	tl.Reset(false)
	if tl.High() != 0 || tl.pend != 0 || tl.Active() {
		t.Fatalf("reset left state: high %v pend %v active %v", tl.High(), tl.pend, tl.Active())
	}
}

func TestTimedBracketSchedulesPerDelivery(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	inner := NewDelay(Perfect{}, DelayParams{Kind: DelayFixed, A: 2}, 0, 0, rng.New(1), &tl)
	var tally obs.Tally
	ch := NewTimed(inner, &tl, &tally)
	if got := ch.Name(); got != "delay" {
		t.Fatalf("timed bracket leaked into the name: %q", got)
	}
	p := pkt(0, 1, 3)
	p.Now = 7
	if ok, paid := ch.DeliverRoute(p); !ok || paid != 0 {
		t.Fatalf("DeliverRoute = %v, %d", ok, paid)
	}
	// One completion at decision time + hops x fixed delay = 7 + 6.
	if tl.High() != 13 {
		t.Fatalf("high %v, want 13", tl.High())
	}
	// The bracket counted one delivery of latency 6 in the run's tally
	// (bucket le=16), which reaches the registry only at run end.
	reg := obs.NewRegistry()
	scope := reg.Scope("test")
	if got := reg.Flatten()[`geogossip_delivery_latency_count{engine="test"}`]; got != 0 {
		t.Fatalf("latency reached the registry before the flush: %v", got)
	}
	scope.EndRun(&tally, 0, 0, 0, 0, 0, false, 0)
	flat := reg.Flatten()
	if got := flat[`geogossip_delivery_latency_count{engine="test"}`]; got != 1 {
		t.Fatalf("latency count %v, want 1", got)
	}
	if got := flat[`geogossip_delivery_latency_bucket{engine="test",le="4"}`]; got != 0 {
		t.Fatalf("latency 6 counted at le=4: %v", got)
	}
	if got := flat[`geogossip_delivery_latency_bucket{engine="test",le="16"}`]; got != 1 {
		t.Fatalf("latency 6 missing at le=16: %v", got)
	}
}

// TestTransportOffTickPathAllocFree pins the zero-delay/ARQ-off contract:
// a pooled channel without transport components must deliver and advance
// without allocating, exactly like the pre-transport layer did.
func TestTransportOffTickPathAllocFree(t *testing.T) {
	spec, err := Parse("bernoulli:0.2")
	if err != nil {
		t.Fatal(err)
	}
	var pool Pool
	var tl Timeline
	tl.Reset(false) // transport off: the engine still owns a (dormant) timeline
	ch, err := spec.BuildWith(&pool, 16, Env{Timeline: &tl}, rng.New(3), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(1, 2, 4)
	var now uint64
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		ch.Advance(now)
		p.Now = now
		ch.DeliverHop(p)
		ch.DeliverRoute(p)
		ch.DeliverRoundTrip(p)
	})
	if allocs != 0 {
		t.Fatalf("transport-off tick path allocates %v per tick, want 0", allocs)
	}
}

// TestTransportTickPathAllocFree guards the live transport path too: a
// pooled delay+ARQ channel counting into a tally delivers and records
// latency without allocating, from its first delivery on.
func TestTransportTickPathAllocFree(t *testing.T) {
	spec, err := Parse("bernoulli:0.2+delay:exp/0.5+arq:2/1/2")
	if err != nil {
		t.Fatal(err)
	}
	var pool Pool
	var tl Timeline
	var tally obs.Tally
	tl.Reset(true)
	ch, err := spec.BuildWith(&pool, 16, Env{Timeline: &tl, Tally: &tally}, rng.New(3), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(1, 2, 4)
	var now uint64
	tick := func() {
		now++
		ch.Advance(now)
		p.Now = now
		ch.DeliverHop(p)
		ch.DeliverRoute(p)
	}
	if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
		t.Fatalf("transport tick path allocates %v per tick after warmup, want 0", allocs)
	}
}
