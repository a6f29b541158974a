package channel

import (
	"math"
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

// spatialPkt builds a delivery context between two explicit positions.
func spatialPkt(src, dst geo.Point, hops int, now uint64) Packet {
	return Packet{Src: 0, Dst: 1, SrcPos: src, DstPos: dst, Hops: hops, Now: now}
}

func TestDiskFieldGeometry(t *testing.T) {
	f := FieldParams{Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.2, Loss: 0.8}
	if got := f.LossAt(geo.Pt(0.5, 0.5), 0); got != 0.8 {
		t.Fatalf("centre loss %v, want 0.8", got)
	}
	if got := f.LossAt(geo.Pt(0.5, 0.69), 0); got != 0.8 {
		t.Fatalf("in-disk loss %v, want 0.8", got)
	}
	if got := f.LossAt(geo.Pt(0.5, 0.71), 0); got != 0 {
		t.Fatalf("out-of-disk loss %v, want 0", got)
	}
}

func TestScheduledFieldWindowAndPeriod(t *testing.T) {
	oneShot := FieldParams{Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.3, Loss: 1, From: 100, Until: 200}
	for now, want := range map[uint64]bool{0: false, 99: false, 100: true, 199: true, 200: false, 10_000: false} {
		if got := oneShot.Active(now); got != want {
			t.Fatalf("one-shot window at t=%d: active=%v, want %v", now, got, want)
		}
	}
	periodic := FieldParams{Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.3, Loss: 1, From: 100, Until: 200, Period: 500}
	for now, want := range map[uint64]bool{0: false, 150: true, 300: false, 650: true, 850: false, 1120: true} {
		if got := periodic.Active(now); got != want {
			t.Fatalf("periodic window at t=%d: active=%v, want %v", now, got, want)
		}
	}
	if got, want := periodic.DutyCycle(), 0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("periodic duty cycle %v, want %v", got, want)
	}
}

func TestMovingFieldReflects(t *testing.T) {
	f := FieldParams{Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.1, Loss: 1, Vel: geo.Pt(0.01, 0)}
	// After 50 units the centre reaches x=1, then reflects back.
	if c := f.CenterAt(50); math.Abs(c.X-1) > 1e-12 {
		t.Fatalf("centre at t=50: %v, want x=1", c)
	}
	if c := f.CenterAt(80); math.Abs(c.X-0.7) > 1e-9 {
		t.Fatalf("centre at t=80: %v, want x=0.7 after reflection", c)
	}
	// The centre never leaves the unit square.
	for now := uint64(0); now < 1000; now += 7 {
		c := f.CenterAt(now)
		if c.X < 0 || c.X > 1 || c.Y < 0 || c.Y > 1 {
			t.Fatalf("centre escaped the unit square at t=%d: %v", now, c)
		}
	}
}

func TestPolygonFieldContains(t *testing.T) {
	tri := geo.Polygon{geo.Pt(0.2, 0.2), geo.Pt(0.8, 0.2), geo.Pt(0.5, 0.8)}
	f := FieldParams{Kind: FieldPolygon, Poly: tri, Loss: 0.5}
	if got := f.LossAt(geo.Pt(0.5, 0.4), 0); got != 0.5 {
		t.Fatalf("in-triangle loss %v, want 0.5", got)
	}
	if got := f.LossAt(geo.Pt(0.1, 0.9), 0); got != 0 {
		t.Fatalf("out-of-triangle loss %v, want 0", got)
	}
}

// fieldMedium builds the jamming fields alone, drawing from r. The
// packets these tests send carry their own positions, which are all a
// field reads.
func fieldMedium(t testing.TB, r *rng.RNG, fields ...FieldParams) *Medium {
	t.Helper()
	return mustBuild(t, Spec{Fields: fields}, 2, Env{Points: make([]geo.Point, 2)}, r, rng.New(0))
}

func TestSpatialLossSamplesMidpoint(t *testing.T) {
	// A total-loss disk in the middle of the square: a hop passing through
	// it is always lost even when both endpoints are outside.
	f := FieldParams{Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.1, Loss: 1}
	ch := fieldMedium(t, rng.New(1), f)
	if ok, paid := ch.DeliverHop(spatialPkt(geo.Pt(0.45, 0.3), geo.Pt(0.55, 0.7), 1, 0)); ok || paid != 1 {
		t.Fatalf("through-jammer hop survived (ok=%v paid=%d)", ok, paid)
	}
	// A hop far from the disk never draws randomness and always survives.
	r := rng.New(2)
	ch2 := fieldMedium(t, r, f)
	for i := 0; i < 200; i++ {
		if ok, _ := ch2.DeliverHop(spatialPkt(geo.Pt(0.05, 0.05), geo.Pt(0.1, 0.05), 1, 0)); !ok {
			t.Fatal("clear-air hop lost")
		}
	}
	untouched(t, r, 2, "clear-air traffic")
}

func TestSpatialLossRouteCharge(t *testing.T) {
	f := FieldParams{Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.2, Loss: 1}
	ch := fieldMedium(t, rng.New(3), f)
	ok, paid := ch.DeliverRoute(spatialPkt(geo.Pt(0.5, 0.45), geo.Pt(0.5, 0.55), 20, 0))
	if ok {
		t.Fatal("in-jammer route survived total loss")
	}
	if paid < 1 || paid > 20 {
		t.Fatalf("lost route paid %d, want within [1, 20]", paid)
	}
}

func TestPartitionSeversAndHeals(t *testing.T) {
	cut := CutParams{A: 1, C: 0.5, From: 100, Until: 200} // vertical line x = 0.5
	ch := mustBuild(t, Spec{Cut: cut}, 2, Env{Points: make([]geo.Point, 2)}, rng.New(1), rng.New(2))
	left, right := geo.Pt(0.2, 0.5), geo.Pt(0.8, 0.5)
	if ok, _ := ch.DeliverHop(spatialPkt(left, right, 1, 50)); !ok {
		t.Fatal("pre-window crossing was severed")
	}
	if ok, paid := ch.DeliverHop(spatialPkt(left, right, 1, 150)); ok || paid != 1 {
		t.Fatalf("active-window crossing delivered (ok=%v paid=%d)", ok, paid)
	}
	if ok, paid := ch.DeliverRoute(spatialPkt(left, right, 9, 150)); ok || paid != 5 {
		t.Fatalf("active-window route: ok=%v paid=%d, want false, 5", ok, paid)
	}
	// Same-side traffic is untouched during the window.
	if ok, _ := ch.DeliverHop(spatialPkt(left, geo.Pt(0.3, 0.6), 1, 150)); !ok {
		t.Fatal("same-side hop severed")
	}
	if ok, _ := ch.DeliverHop(spatialPkt(left, right, 1, 200)); !ok {
		t.Fatal("post-heal crossing still severed")
	}
}

func TestTargetedChurnKillsOnlyTargets(t *testing.T) {
	const n = 200
	targets := []int32{3, 17, 42}
	spec := Spec{Churn: ChurnParams{MeanUp: 10}, ChurnTarget: TargetReps}
	ch := mustBuild(t, spec, n, Env{Reps: targets}, rng.New(1), rng.New(4))
	ch.Advance(1_000_000) // far beyond every target's crash time
	isTarget := map[int32]bool{3: true, 17: true, 42: true}
	for i := int32(0); i < n; i++ {
		alive := ch.Alive(i)
		if isTarget[i] && alive {
			t.Fatalf("target %d still alive after 100000 mean lifetimes", i)
		}
		if !isTarget[i] && !alive {
			t.Fatalf("non-target %d died under targeted churn", i)
		}
	}
	if got, want := aliveCount(ch, n), n-len(targets); got != want {
		t.Fatalf("alive count %d, want %d", got, want)
	}
}

func TestTargetedChurnMatchesUniformSchedules(t *testing.T) {
	// A targeted node's schedule must be identical to the schedule the
	// same node has under uniform churn with the same seed — targeting
	// masks the set, it does not re-derive randomness.
	const n = 64
	p := ChurnParams{MeanUp: 500, MeanDown: 250}
	uniform := mustBuild(t, Spec{Churn: p}, n, Env{}, rng.New(1), rng.New(5))
	targeted := mustBuild(t, Spec{Churn: p, ChurnTarget: TargetHubs, HubCount: 1}, n, Env{HubOrder: []int32{7}}, rng.New(1), rng.New(5))
	for _, now := range []uint64{100, 900, 2500, 10_000} {
		uniform.Advance(now)
		targeted.Advance(now)
		if uniform.Alive(7) != targeted.Alive(7) {
			t.Fatalf("node 7 liveness diverged at t=%d", now)
		}
	}
}

func TestHasLossSeesFieldsPastZeroRateModels(t *testing.T) {
	// Regression: the loss-model switch used to return before the field
	// check, so a zero-rate Bernoulli plus a lossy jam read as lossless.
	spec, err := Parse("bernoulli:0+jam:0.5/0.5/0.2/0.9")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.HasLoss() {
		t.Fatal("zero-rate bernoulli + lossy field reported HasLoss false")
	}
}

func TestFieldValidateRejectsUnprintableCombinations(t *testing.T) {
	// The grammar cannot express these, so Validate must reject them —
	// otherwise Spec.String would silently drop the window and break the
	// print→parse round-trip contract.
	movingScheduled := Spec{Fields: []FieldParams{{
		Kind: FieldDisk, Center: geo.Pt(0.5, 0.5), Radius: 0.2, Loss: 0.5,
		Vel: geo.Pt(1e-5, 0), From: 100, Until: 200,
	}}}
	if err := movingScheduled.Validate(); err == nil {
		t.Fatal("moving+scheduled disk validated")
	}
	scheduledPoly := Spec{Fields: []FieldParams{{
		Kind: FieldPolygon, Loss: 0.5, From: 100, Until: 200,
		Poly: []geo.Point{geo.Pt(0.2, 0.2), geo.Pt(0.8, 0.2), geo.Pt(0.5, 0.8)},
	}}}
	if err := scheduledPoly.Validate(); err == nil {
		t.Fatal("scheduled polygon validated")
	}
}

// TestSpecBuildSpatialComposition checks the spatial stages' order on a
// spec with all of them: churn first, then the cut, then the fields,
// then the loss model. Each stage that decides a delivery leaves the
// stages after it undrawn.
func TestSpecBuildSpatialComposition(t *testing.T) {
	// Node 0 sits in a total-loss disk at x < 0.5; nodes 1 and 2 lie
	// clear of it, on either side of the cut x = 0.5 (active [100, 200)).
	pts := []geo.Point{geo.Pt(0.45, 0.5), geo.Pt(0.2, 0.1), geo.Pt(0.8, 0.1), geo.Pt(0.3, 0.1)}
	spec := mustParse(t, "bernoulli:0.5+jam:0.45/0.5/0.05/1+cut:1/0/0.5/100/200+churn:1000000/0")
	build := func(lossSeed uint64) (*Medium, *rng.RNG) {
		lr := rng.New(lossSeed)
		return mustBuild(t, spec, len(pts), Env{Points: pts}, lr, rng.New(2)), lr
	}
	hop := func(m *Medium, src, dst int32, now uint64) (bool, int) {
		m.Advance(now)
		return m.DeliverHop(NewPacket(pts, src, dst, 1, now))
	}

	// The cut decides before the jam: a severed hop from inside the disk
	// draws nothing.
	m, lr := build(10)
	if ok, paid := hop(m, 0, 2, 150); ok || paid != 1 {
		t.Fatalf("severed hop = %v, %d; want false, 1", ok, paid)
	}
	untouched(t, lr, 10, "a severed hop")

	// The jam decides before the loss model: a certain jam loss is one
	// Bernoulli-free drop (p = 1 draws nothing), so the loss model's draw
	// never happens.
	m, lr = build(11)
	if ok, paid := hop(m, 0, 3, 50); ok || paid != 1 {
		t.Fatalf("jammed hop = %v, %d; want false, 1", ok, paid)
	}
	untouched(t, lr, 11, "a jammed hop")

	// Clear of the jam and the cut, the loss model draws once.
	m, lr = build(12)
	ok, _ := hop(m, 1, 3, 50)
	ref := rng.New(12)
	if lost := ref.Bernoulli(0.5); ok == lost {
		t.Fatalf("clear hop verdict %v, reference lost=%v", ok, lost)
	}
	if lr.Uint64() != ref.Uint64() {
		t.Fatal("clear hop did not draw exactly one loss Bernoulli")
	}

	// Churn decides first: once every node has crashed, even a severed,
	// jammed hop fails unsent.
	m, lr = build(13)
	if ok, paid := hop(m, 0, 2, 1<<40); ok || paid != 0 {
		t.Fatalf("hop from a crashed node = %v, %d; want false, 0", ok, paid)
	}
	untouched(t, lr, 13, "a crashed node's hop")
}

func TestSpecBuildRequiresContext(t *testing.T) {
	spatial, err := Parse("jam:0.5/0.5/0.2/0.9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spatial.Build(10, Env{}, rng.New(1), rng.New(2)); err == nil {
		t.Fatal("spatial spec built without positions")
	}
	reps, err := Parse("repchurn:1000/0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reps.Build(10, Env{}, rng.New(1), rng.New(2)); err == nil {
		t.Fatal("rep-targeted spec built without representatives")
	}
	hubs, err := Parse("hubchurn:1000/0/5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hubs.Build(10, Env{}, rng.New(1), rng.New(2)); err == nil {
		t.Fatal("hub-targeted spec built without a degree order")
	}
	if _, err := hubs.Build(10, Env{HubOrder: []int32{0, 1, 2, 3, 4}}, rng.New(1), rng.New(2)); err != nil {
		t.Fatalf("hub-targeted spec with sufficient order failed: %v", err)
	}
}

func TestExpectedLossRateWithFields(t *testing.T) {
	// A full-loss field covering a quarter of the square at full duty
	// contributes ~0.25 expected loss.
	spec := Spec{Fields: []FieldParams{{
		Kind: FieldPolygon,
		Poly: []geo.Point{geo.Pt(0, 0), geo.Pt(0.5, 0), geo.Pt(0.5, 0.5), geo.Pt(0, 0.5)},
		Loss: 1,
	}}}
	if got := spec.ExpectedLossRate(); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("field expected loss %v, want 0.25", got)
	}
}
