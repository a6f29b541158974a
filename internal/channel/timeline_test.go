package channel

import (
	"testing"

	"geogossip/internal/geo"
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
	tl.Add(2) // latency accumulates across stages
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
	var tally obs.Tally
	spec := mustParse(t, "delay:fixed/2")
	// Without a timeline the bracket is not built: latency is discarded,
	// and nothing else changes.
	if m := mustBuild(t, spec, 2, Env{Tally: &tally}, rng.New(1), rng.New(2)); m.stages&stageTimed != 0 {
		t.Fatal("bracket built without a timeline")
	}
	ch := mustBuild(t, spec, 2, Env{Timeline: &tl, Tally: &tally}, rng.New(1), rng.New(2))
	if ch.stages&stageTimed == 0 {
		t.Fatal("transport spec with a timeline built no bracket")
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

// allocShape is one medium shape the alloc guards run: a spec and the
// network context it binds to.
type allocShape struct {
	spec string
	reps []int32
}

// allocNodes is the node count of the alloc guards' media; every tick
// delivers between two of them, cycling through all of them.
const allocNodes = 16

// allocTicks returns a tick function over m that advances one time
// unit and makes every delivery shape the engines make.
func allocTicks(m *Medium, pts []geo.Point, shapes int) func() {
	var now uint64
	return func() {
		now++
		m.Advance(now)
		src, dst := int32(now%allocNodes), int32((now*7+3)%allocNodes)
		m.Alive(src)
		m.DeliverHop(NewPacket(pts, src, dst, 1, now))
		m.DeliverRoute(NewPacket(pts, src, dst, 4, now))
		if shapes == 3 {
			m.DeliverRoundTrip(NewPacket(pts, src, dst, 4, now))
		}
	}
}

// assertAllocFree builds each shape on a kept Pool, warms it (the first
// build allocates the pool's storage, the first query of a churned node
// its schedule generator), and then requires that ticking and
// rebuilding on the pool allocate nothing.
func assertAllocFree(t *testing.T, shapes []allocShape, transport bool, deliveries int) {
	t.Helper()
	pts := make([]geo.Point, allocNodes)
	r := rng.New(9)
	for i := range pts {
		pts[i] = geo.Pt(r.Float64(), r.Float64())
	}
	for _, sh := range shapes {
		spec := mustParse(t, sh.spec)
		var pool Pool
		var tl Timeline
		var tally obs.Tally
		tl.Reset(transport) // the engine always owns a timeline, dormant without transport
		env := Env{Points: pts, Reps: sh.reps, Timeline: &tl, Tally: &tally}
		lr, cr := rng.New(3), rng.New(4)
		m, err := spec.BuildWith(&pool, allocNodes, env, lr, cr)
		if err != nil {
			t.Fatal(err)
		}
		tick := allocTicks(m, packetPoints(spec, pts), deliveries)
		for i := int32(0); i < allocNodes; i++ {
			m.Alive(i)
		}
		if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
			t.Fatalf("%s: tick path allocates %v per tick, want 0", sh.spec, allocs)
		}
		rebuild := func() {
			tl.Reset(transport)
			tally.Reset()
			lr.Reseed(3)
			m, err := spec.BuildWith(&pool, allocNodes, env, lr, cr)
			if err != nil {
				t.Fatal(err)
			}
			tick := allocTicks(m, packetPoints(spec, pts), deliveries)
			for range allocNodes {
				tick()
			}
		}
		if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
			t.Fatalf("%s: rebuilding on a kept pool allocates %v per build, want 0", sh.spec, allocs)
		}
	}
}

// packetPoints returns pts when spec is spatial and nil otherwise: the engines'
// packet rule (sim.SpatialPoints).
func packetPoints(spec Spec, pts []geo.Point) []geo.Point {
	if spec.Spatial() {
		return pts
	}
	return nil
}

// TestTransportOffTickPathAllocFree pins the zero-delay/ARQ-off contract:
// a pooled medium without transport components must deliver and advance
// without allocating, exactly like the pre-transport layer did, and so
// must rebuilding it on its pool.
func TestTransportOffTickPathAllocFree(t *testing.T) {
	assertAllocFree(t, []allocShape{
		{spec: "perfect"},
		{spec: "bernoulli:0.2"},
		{spec: "ge:0.025/0.1/0.01/0.5+jam:0.5/0.5/0.15/0.5"},
		{spec: "cut:1/0/0.5/0/100000"},
		{spec: "churn:500/200"},
		{spec: "repchurn:500/200", reps: []int32{1, 5, 9, 13}},
	}, false, 3)
}

// TestTransportTickPathAllocFree guards the live transport path too: a
// pooled delay+ARQ medium, and the grid-faults workload's loss + jam +
// delay + ARQ medium, counting into a tally, deliver and record latency
// without allocating, from their first delivery on.
func TestTransportTickPathAllocFree(t *testing.T) {
	assertAllocFree(t, []allocShape{
		{spec: "bernoulli:0.2+delay:exp/0.5+arq:2/1/2"},
		{spec: "ge:0.025/0.1/0.01/0.5+jam:0.5/0.5/0.15/0.5+delay:exp/0.5+arq:3/1/2"},
	}, true, 2)
}
