package channel

import (
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/trace"
)

// collect gathers traced events for assertion.
type collect struct{ events []trace.Event }

func (c *collect) Record(e trace.Event) { c.events = append(c.events, e) }

func (c *collect) count(k trace.Kind) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// flushed adds tally to a fresh registry's "test" scope through the
// run-end flush and returns that registry.
func flushed(tally *obs.Tally) *obs.Registry {
	reg := obs.NewRegistry()
	reg.Scope("test").EndRun(tally, 0, 0, 0, 0, 0, false, 0)
	return reg
}

// lossSeedFor returns the first loss-stream seed on which consecutive
// Bernoulli(p) draws read verdicts: true for a delivered attempt, false
// for a lost one. It pins the attempt sequence an ARQ test needs on a
// Spec-built Bernoulli medium.
func lossSeedFor(t testing.TB, p float64, verdicts ...bool) uint64 {
	t.Helper()
next:
	for seed := uint64(1); seed < 1000; seed++ {
		r := rng.New(seed)
		for _, ok := range verdicts {
			if r.Bernoulli(p) == ok {
				continue next
			}
		}
		return seed
	}
	t.Fatalf("no seed below 1000 draws %v at p=%v", verdicts, p)
	return 0
}

// arqStream returns the ARQ jitter stream a medium built over a loss
// stream of the given seed draws from.
func arqStream(lossSeed uint64) *rng.RNG { return rng.New(rng.DeriveString(lossSeed, "arq")) }

// delayStream returns the delay stream a medium built over a loss stream
// of the given seed draws from.
func delayStream(lossSeed uint64) *rng.RNG { return rng.New(rng.DeriveString(lossSeed, "delay")) }

// sameStream fails the test unless a and b are at the same position.
func sameStream(t testing.TB, a, b *rng.RNG, what string) {
	t.Helper()
	if a.Uint64() != b.Uint64() {
		t.Fatalf("%s: streams at different positions", what)
	}
}

func TestARQRetriesUntilSuccess(t *testing.T) {
	var tally obs.Tally
	var tr collect
	seed := lossSeedFor(t, 0.5, false, false, true)
	lr := rng.New(seed)
	a := mustBuild(t, mustParse(t, "bernoulli:0.5+arq:5/1/2"), 10, Env{Tally: &tally, Tracer: &tr}, lr, rng.New(7))
	ok, paid := a.DeliverHop(pkt(3, 9, 1))
	if !ok || paid != 2 {
		t.Fatalf("DeliverHop = %v, %d; want success paying the 2 failed attempts", ok, paid)
	}
	// Three attempts: the loss stream moved by exactly three draws.
	ref := rng.New(seed)
	for range 3 {
		ref.Bernoulli(0.5)
	}
	sameStream(t, lr, ref, "loss stream after three attempts")
	reg := flushed(&tally)
	if got := reg.Counter(obs.MetricARQTimeouts, "", "engine", "test").Value(); got != 2 {
		t.Fatalf("timeout counter %d, want 2", got)
	}
	if got := reg.Counter(obs.MetricRetransmissions, "", "engine", "test").Value(); got != 2 {
		t.Fatalf("retransmit counter %d, want 2", got)
	}
	// Both waits (1 and 2, plus jitter under half of each) land in the
	// backoff histogram's le=4 bucket.
	flat := reg.Flatten()
	if got := flat[`geogossip_arq_backoff_wait_count{engine="test"}`]; got != 2 {
		t.Fatalf("backoff wait count %v, want 2", got)
	}
	if got := flat[`geogossip_arq_backoff_wait_bucket{engine="test",le="4"}`]; got != 2 {
		t.Fatalf("backoff waits at le=4: %v, want 2", got)
	}
	if tr.count(trace.KindTimeout) != 2 || tr.count(trace.KindRetransmit) != 2 {
		t.Fatalf("traced %d timeouts, %d retransmits; want 2 and 2",
			tr.count(trace.KindTimeout), tr.count(trace.KindRetransmit))
	}
	// Transport events carry zero hops: the exchange's own event bills
	// the airtime, so trace hop totals still reproduce Transmissions.
	for _, e := range tr.events {
		if e.Hops != 0 {
			t.Fatalf("transport event %v carries %d hops", e.Kind, e.Hops)
		}
		if e.NodeA != 3 || e.NodeB != 9 {
			t.Fatalf("transport event endpoints (%d, %d), want (3, 9)", e.NodeA, e.NodeB)
		}
	}
}

func TestARQExhaustsBudget(t *testing.T) {
	var tally obs.Tally
	lr := rng.New(7)
	a := mustBuild(t, mustParse(t, "bernoulli:1+arq:3/1/2"), 2, Env{Tally: &tally}, lr, rng.New(8))
	ok, paid := a.DeliverRoute(pkt(0, 1, 5))
	// Every attempt is lost (p = 1 draws nothing) and pays its failure
	// point: 1 + 3 retries, each billed.
	ref := rng.New(7)
	want := 0
	for range 4 {
		want += 1 + ref.IntN(5)
	}
	if ok || paid != want {
		t.Fatalf("DeliverRoute = %v, %d; want give-up billing all 4 attempts (%d)", ok, paid, want)
	}
	sameStream(t, lr, ref, "loss stream after 1 + 3 attempts")
	// Every lost attempt times out; only the retried ones count as
	// retransmissions — the last timeout is the give-up.
	reg := flushed(&tally)
	if got := reg.Counter(obs.MetricARQTimeouts, "", "engine", "test").Value(); got != 4 {
		t.Fatalf("timeout counter %d, want 4", got)
	}
	if got := reg.Counter(obs.MetricRetransmissions, "", "engine", "test").Value(); got != 3 {
		t.Fatalf("retransmit counter %d, want 3", got)
	}
}

func TestARQBackoffWaitsWithJitter(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	a := mustBuild(t, mustParse(t, "bernoulli:1+arq:2/1/2"), 2, Env{Timeline: &tl}, rng.New(11), rng.New(12))
	if ok, _ := a.DeliverHop(pkt(0, 1, 1)); ok {
		t.Fatal("all-loss medium delivered")
	}
	// Three timeouts wait 1, 2, 4 plus jitter in [0, wait/2) each:
	// total in [7, 10.5), closed at decision time 0.
	if tl.High() < 7 || tl.High() >= 10.5 {
		t.Fatalf("accumulated wait %v outside [7, 10.5)", tl.High())
	}
	jitter := arqStream(11)
	want := 0.0
	for _, wait := range []float64{1, 2, 4} {
		want += wait + jitter.Float64()*wait/2
	}
	if tl.High() != want {
		t.Fatalf("accumulated wait %v, want %v from the jitter stream", tl.High(), want)
	}
}

func TestARQZeroTimeoutDrawsNoJitter(t *testing.T) {
	seed := lossSeedFor(t, 0.5, false, true)
	a := mustBuild(t, mustParse(t, "bernoulli:0.5+arq:1/0/1"), 2, Env{}, rng.New(seed), rng.New(1))
	if ok, paid := a.DeliverHop(pkt(0, 1, 1)); !ok || paid != 1 {
		t.Fatalf("DeliverHop = %v, %d", ok, paid)
	}
	sameStream(t, a.arqR, arqStream(seed), "zero-timeout ARQ jitter stream")
}

func TestDelayDrawsOncePerDeliveryEvenOnLoss(t *testing.T) {
	var tl Timeline
	var tally obs.Tally
	tl.Reset(true)
	const mean = 0.5
	d := mustBuild(t, mustParse(t, "bernoulli:0.5+delay:exp/0.5"), 2, Env{Timeline: &tl, Tally: &tally}, rng.New(21), rng.New(22))
	ref := delayStream(21)
	var want obs.Tally
	high, lost := 0.0, 0
	for i := 0; i < 100; i++ {
		if ok, _ := d.DeliverHop(Packet{Src: 0, Dst: 1, Hops: 1, Now: uint64(i)}); !ok {
			lost++
		}
		// One exponential draw per delivery decision, delivered or lost.
		lat := ref.ExpFloat64() * mean
		want.DeliveryLatency(lat)
		high = max(high, float64(i)+lat)
	}
	if lost == 0 || lost == 100 {
		t.Fatalf("%d of 100 lost: both verdicts must occur", lost)
	}
	if tally != want {
		t.Fatal("delivery latencies differ from one delay draw per delivery")
	}
	if tl.High() != high {
		t.Fatalf("high %v, want %v — delay did not draw exactly once per delivery", tl.High(), high)
	}
}

func TestDelayReorderPenaltyAndDupCharge(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	d := mustBuild(t, mustParse(t, "delay:fixed/2+reorder:1+dup:1"), 2, Env{Timeline: &tl}, rng.New(5), rng.New(6))
	ok, paid := d.DeliverRoute(pkt(0, 1, 3))
	if !ok {
		t.Fatal("lossless medium lost a route")
	}
	// Certain reorder: base 3-leg latency plus one extra traversal = 12.
	if tl.High() != 12 {
		t.Fatalf("latency %v, want 12 (reordered straggler waits out a second traversal)", tl.High())
	}
	// Certain duplication: the copy re-pays the route's airtime.
	if paid != 3 {
		t.Fatalf("paid %d extra, want the duplicate's 3 transmissions", paid)
	}
	tl.Reset(true)
	ok, paid = d.DeliverRoundTrip(pkt(0, 1, 2))
	if !ok || tl.High() != 16 || paid != 4 {
		t.Fatalf("round trip = %v, paid %d, latency %v; want true, 4, 16", ok, paid, tl.High())
	}
}

func TestDelayLeavesLossStreamUntouched(t *testing.T) {
	plain, err := Parse("bernoulli:0.3")
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Parse("bernoulli:0.3+delay:exp/0.5+reorder:0.2+dup:0.1")
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.Build(8, Env{}, rng.New(42), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	tl.Reset(true)
	b, err := delayed.Build(8, Env{Timeline: &tl}, rng.New(42), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	p := pkt(0, 1, 3)
	for i := 0; i < 2000; i++ {
		p.Now = uint64(i)
		okA, _ := a.DeliverHop(p)
		okB, _ := b.DeliverHop(p)
		if okA != okB {
			t.Fatalf("delivery %d: transport layer changed the loss verdict (%v vs %v)", i, okA, okB)
		}
	}
	if tl.High() == 0 {
		t.Fatal("delayed channel added no latency — transport layer inert")
	}
}

func TestARQOnPerfectMediumIsInert(t *testing.T) {
	spec, err := Parse("arq:3/1/2")
	if err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	tl.Reset(true)
	lossRNG := rng.New(17)
	ch, err := spec.Build(8, Env{Timeline: &tl}, lossRNG, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if ok, paid := ch.DeliverRoundTrip(pkt(0, 1, 4)); !ok || paid != 0 {
			t.Fatalf("delivery %d = %v, %d; ARQ on a perfect medium must be free", i, ok, paid)
		}
	}
	if tl.High() != 0 {
		t.Fatalf("ARQ on a perfect medium added latency: high %v", tl.High())
	}
	if got, want := lossRNG.Uint64(), rng.New(17).Uint64(); got != want {
		t.Fatal("ARQ on a perfect medium consumed loss randomness")
	}
}

// TestTransportComposesInWrapperOrder checks the transport stages'
// order: churn before ARQ (a dead endpoint spends no retry, draws
// nothing and records no latency), delay inside ARQ (each retry re-draws
// the delay), and the Timed bracket outermost (one completion per
// delivery, however many attempts it took).
func TestTransportComposesInWrapperOrder(t *testing.T) {
	var tl Timeline
	var tally obs.Tally
	var tr collect
	tl.Reset(true)
	env := Env{Timeline: &tl, Tally: &tally, Tracer: &tr}
	lr := rng.New(1)
	ch := mustBuild(t, mustParse(t, "bernoulli:0.1+delay:fixed/1+reorder:0.5+dup:0.1+arq:2/1/2+churn:1000/0"), 8, env, lr, rng.New(2))
	ch.Advance(1 << 40) // every node has crashed
	for i := 0; i < 20; i++ {
		if ok, paid := ch.DeliverRoute(pkt(1, 2, 4)); ok || paid != 0 {
			t.Fatalf("delivery from a dead node = %v, %d; want false, 0", ok, paid)
		}
	}
	if tally != (obs.Tally{}) || len(tr.events) != 0 || tl.High() != 0 {
		t.Fatalf("dead-endpoint deliveries spent ARQ or delay: tally %+v, %d events, high %v", tally, len(tr.events), tl.High())
	}
	untouched(t, lr, 1, "dead-endpoint deliveries' loss stream")
	sameStream(t, ch.delayR, delayStream(1), "dead-endpoint deliveries' delay stream")
	sameStream(t, ch.arqR, arqStream(1), "dead-endpoint deliveries' jitter stream")

	// Every attempt is lost and the timeout is zero, so the latency is
	// the delay stage's alone: one draw per attempt, three attempts,
	// closed as one completion.
	tl.Reset(true)
	tally.Reset()
	ch = mustBuild(t, mustParse(t, "bernoulli:1+delay:exp/0.5+arq:2/0/1"), 8, env, rng.New(3), rng.New(4))
	ch.Advance(5)
	if ok, _ := ch.DeliverHop(Packet{Src: 1, Dst: 2, Hops: 1, Now: 5}); ok {
		t.Fatal("all-loss medium delivered")
	}
	ref := delayStream(3)
	lat := 0.0
	for range 3 {
		lat += ref.ExpFloat64() * 0.5
	}
	var want obs.Tally
	for retry := range 3 {
		want.ARQTimeout()
		want.BackoffWait(0)
		if retry < 2 {
			want.Retransmit()
		}
	}
	want.DeliveryLatency(lat)
	if tl.High() != 5+lat || tally != want {
		t.Fatalf("high %v, want %v; tally %+v, want %+v", tl.High(), 5+lat, tally, want)
	}
}

func TestPoolTransportBuildMatchesFresh(t *testing.T) {
	spec, err := Parse("ge:0.05/0.3/0.1/0.8+delay:exp/0.5+reorder:0.1+dup:0.05+arq:2/1/2")
	if err != nil {
		t.Fatal(err)
	}
	var pool Pool
	var tlFresh, tlPooled Timeline
	var tallyFresh, tallyPooled obs.Tally
	// Two pooled builds in a row: the second must reseed the kept
	// transport streams back to the fresh-build sequence.
	for round := 0; round < 2; round++ {
		tlFresh.Reset(true)
		tlPooled.Reset(true)
		tallyFresh.Reset()
		tallyPooled.Reset()
		fresh, err := spec.Build(8, Env{Timeline: &tlFresh, Tally: &tallyFresh}, rng.New(42), rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := spec.BuildWith(&pool, 8, Env{Timeline: &tlPooled, Tally: &tallyPooled}, rng.New(42), rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		if fresh.stages != pooled.stages {
			t.Fatalf("round %d: stages differ: %08b vs %08b", round, fresh.stages, pooled.stages)
		}
		p := pkt(0, 1, 3)
		for i := 0; i < 1000; i++ {
			p.Now = uint64(i)
			fresh.Advance(p.Now)
			pooled.Advance(p.Now)
			var okA, okB bool
			var paidA, paidB int
			switch i % 3 {
			case 0:
				okA, paidA = fresh.DeliverHop(p)
				okB, paidB = pooled.DeliverHop(p)
			case 1:
				okA, paidA = fresh.DeliverRoute(p)
				okB, paidB = pooled.DeliverRoute(p)
			default:
				okA, paidA = fresh.DeliverRoundTrip(p)
				okB, paidB = pooled.DeliverRoundTrip(p)
			}
			if okA != okB || paidA != paidB {
				t.Fatalf("round %d delivery %d: fresh (%v, %d) vs pooled (%v, %d)", round, i, okA, paidA, okB, paidB)
			}
		}
		if tlFresh.High() != tlPooled.High() {
			t.Fatalf("round %d: timelines diverged: high %v/%v", round, tlFresh.High(), tlPooled.High())
		}
		if tallyFresh != tallyPooled {
			t.Fatalf("round %d: tallies diverged:\nfresh:  %+v\npooled: %+v", round, tallyFresh, tallyPooled)
		}
	}
}

// TestScheduledFaultsFireAtEventInstants pins the replace-on-Advance
// contract the transport layer relies on (Channel.Advance): a medium
// advanced through the floored completion instants of delayed deliveries
// before each check time answers every Alive and DeliverHop query exactly
// as one advanced straight to the check time. The instants straddle a
// jam window, a cut window and many churn flips, so no time-windowed
// fault state may depend on the intermediate steps.
func TestScheduledFaultsFireAtEventInstants(t *testing.T) {
	spec, err := Parse("jam:0.5/0.5/0.3/1/100/200+cut:1/0/0.5/150/400+churn:50/10")
	if err != nil {
		t.Fatal(err)
	}
	pts := []geo.Point{geo.Pt(0.45, 0.5), geo.Pt(0.55, 0.5), geo.Pt(0.48, 0.52), geo.Pt(0.2, 0.2)}
	build := func() Channel {
		ch, err := spec.Build(len(pts), Env{Points: pts}, rng.New(7), rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	stepped, direct := build(), build()

	// Fractional completion instants straddling every boundary: the jam
	// window open (100) and close (200), the cut window (150, 400), and
	// plenty of churn flips in between (mean up 50, down 10).
	instants := []float64{12.7, 98.4, 99.9, 100.0, 100.6, 149.2, 150.7, 199.9, 200.1, 350.4, 400.2, 455.5}
	checks := []uint64{13, 99, 100, 101, 150, 151, 200, 201, 351, 401, 456, 1000}
	next := 0
	for _, now := range checks {
		for next < len(instants) && instants[next] <= float64(now) {
			stepped.Advance(uint64(instants[next]))
			next++
		}
		stepped.Advance(now)
		direct.Advance(now)
		for src := int32(0); src < int32(len(pts)); src++ {
			if a, b := direct.Alive(src), stepped.Alive(src); a != b {
				t.Fatalf("t=%d: alive(%d) %v advanced directly, %v through the instants", now, src, a, b)
			}
			for dst := int32(0); dst < int32(len(pts)); dst++ {
				if src == dst {
					continue
				}
				p := Packet{Src: src, Dst: dst, Hops: 1, Now: now, SrcPos: pts[src], DstPos: pts[dst]}
				okA, paidA := direct.DeliverHop(p)
				okB, paidB := stepped.DeliverHop(p)
				if okA != okB || paidA != paidB {
					t.Fatalf("t=%d: hop %d->%d (%v, %d) advanced directly, (%v, %d) through the instants", now, src, dst, okA, paidA, okB, paidB)
				}
			}
		}
	}
	if next != len(instants) {
		t.Fatalf("stepped through %d instants, want %d", next, len(instants))
	}
}

func TestTransportSpecRejections(t *testing.T) {
	for _, text := range []string{
		"delay:fixed/0",         // fixed delay must be positive
		"delay:uniform/0.5/0.2", // bounds inverted
		"delay:exp/-1",
		"delay:trapezoid/1", // unknown distribution
		"reorder:0.5",       // reorder needs a delay distribution
		"delay:exp/1+reorder:1.5",
		"dup:2",
		"arq:0/1/2",   // retries must be positive
		"arq:2/-1/2",  // negative timeout
		"arq:2/1/0.5", // backoff below 1
		"arq:2/1",     // wrong arity
	} {
		if s, err := Parse(text); err == nil {
			t.Fatalf("Parse(%q) accepted invalid transport spec %+v", text, s)
		}
	}
}
