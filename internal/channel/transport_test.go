package channel

import (
	"math"
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
	"geogossip/internal/trace"
)

// script is a Channel whose delivery verdicts follow a fixed cyclic
// sequence, charging one transmission per failed attempt — the minimal
// inner medium for pinning ARQ's retry and billing behaviour.
type script struct {
	verdicts []bool
	calls    int
}

func (s *script) Advance(uint64)   {}
func (s *script) Alive(int32) bool { return true }
func (s *script) Name() string     { return "script" }
func (s *script) next() (bool, int) {
	ok := s.verdicts[s.calls%len(s.verdicts)]
	s.calls++
	if ok {
		return true, 0
	}
	return false, 1
}
func (s *script) DeliverHop(Packet) (bool, int)       { return s.next() }
func (s *script) DeliverRoute(Packet) (bool, int)     { return s.next() }
func (s *script) DeliverRoundTrip(Packet) (bool, int) { return s.next() }

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

func TestARQRetriesUntilSuccess(t *testing.T) {
	var tally obs.Tally
	inner := &script{verdicts: []bool{false, false, true}}
	var tr collect
	a := NewARQ(inner, ARQParams{Retries: 5, Timeout: 1, Backoff: 2}, rng.New(7), nil, &tally, &tr)
	ok, paid := a.DeliverHop(pkt(3, 9, 1))
	if !ok || paid != 2 {
		t.Fatalf("DeliverHop = %v, %d; want success paying the 2 failed attempts", ok, paid)
	}
	if inner.calls != 3 {
		t.Fatalf("inner saw %d attempts, want 3", inner.calls)
	}
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
	inner := &script{verdicts: []bool{false}}
	a := NewARQ(inner, ARQParams{Retries: 3, Timeout: 1, Backoff: 2}, rng.New(7), nil, &tally, nil)
	ok, paid := a.DeliverRoute(pkt(0, 1, 5))
	if ok || paid != 4 {
		t.Fatalf("DeliverRoute = %v, %d; want give-up billing all 4 attempts", ok, paid)
	}
	if inner.calls != 4 {
		t.Fatalf("inner saw %d attempts, want 1 + 3 retries", inner.calls)
	}
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
	inner := &script{verdicts: []bool{false}}
	a := NewARQ(inner, ARQParams{Retries: 2, Timeout: 1, Backoff: 2}, rng.New(11), &tl, nil, nil)
	if ok, _ := a.DeliverHop(pkt(0, 1, 1)); ok {
		t.Fatal("all-loss medium delivered")
	}
	// Three timeouts wait 1, 2, 4 plus jitter in [0, wait/2) each:
	// total in [7, 10.5).
	if tl.pend < 7 || tl.pend >= 10.5 {
		t.Fatalf("accumulated wait %v outside [7, 10.5)", tl.pend)
	}
}

func TestARQZeroTimeoutDrawsNoJitter(t *testing.T) {
	r := rng.New(13)
	inner := &script{verdicts: []bool{false, true}}
	a := NewARQ(inner, ARQParams{Retries: 1, Timeout: 0, Backoff: 1}, r, nil, nil, nil)
	if ok, paid := a.DeliverHop(pkt(0, 1, 1)); !ok || paid != 1 {
		t.Fatalf("DeliverHop = %v, %d", ok, paid)
	}
	if got, want := r.Uint64(), rng.New(13).Uint64(); got != want {
		t.Fatalf("zero-timeout ARQ consumed jitter randomness: %d != %d", got, want)
	}
}

func TestDelayDrawsOncePerDeliveryEvenOnLoss(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	const mean = 0.5
	d := NewDelay(&script{verdicts: []bool{true, false}}, DelayParams{Kind: DelayExp, A: mean}, 0, 0, rng.New(21), &tl)
	ref := rng.New(21)
	var want float64
	for i := 0; i < 100; i++ {
		d.DeliverHop(pkt(0, 1, 1))
		// One exponential draw per delivery decision, delivered or lost.
		want += ref.ExpFloat64() * mean
	}
	if math.Abs(tl.pend-want) > 1e-12 {
		t.Fatalf("accumulated latency %v, want %v — delay did not draw exactly once per delivery", tl.pend, want)
	}
}

func TestDelayReorderPenaltyAndDupCharge(t *testing.T) {
	var tl Timeline
	tl.Reset(true)
	d := NewDelay(Perfect{}, DelayParams{Kind: DelayFixed, A: 2}, 1, 1, rng.New(5), &tl)
	ok, paid := d.DeliverRoute(pkt(0, 1, 3))
	if !ok {
		t.Fatal("perfect medium lost a route")
	}
	// Certain reorder: base 3-leg latency plus one extra traversal = 12.
	if tl.pend != 12 {
		t.Fatalf("latency %v, want 12 (reordered straggler waits out a second traversal)", tl.pend)
	}
	// Certain duplication: the copy re-pays the route's airtime.
	if paid != 3 {
		t.Fatalf("paid %d extra, want the duplicate's 3 transmissions", paid)
	}
	tl.Reset(true)
	ok, paid = d.DeliverRoundTrip(pkt(0, 1, 2))
	if !ok || tl.pend != 16 || paid != 4 {
		t.Fatalf("round trip = %v, paid %d, latency %v; want true, 4, 16", ok, paid, tl.pend)
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

func TestTransportComposesInWrapperOrder(t *testing.T) {
	spec, err := Parse("bernoulli:0.1+delay:fixed/1+reorder:0.5+dup:0.1+arq:2/1/2+churn:1000/0")
	if err != nil {
		t.Fatal(err)
	}
	var tl Timeline
	tl.Reset(true)
	ch, err := spec.Build(8, Env{Timeline: &tl}, rng.New(1), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Delay inside ARQ (retries re-pay latency) inside churn (dead
	// endpoints don't burn the retry budget); the Timed bracket is
	// transparent to the name.
	if got, want := ch.Name(), "bernoulli+delay+arq+churn"; got != want {
		t.Fatalf("composed name %q, want %q", got, want)
	}
	if _, isTimed := ch.(*Timed); !isTimed {
		t.Fatalf("transport spec built %T, want the Timed bracket outermost", ch)
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
		if fresh.Name() != pooled.Name() {
			t.Fatalf("round %d: names differ: %q vs %q", round, fresh.Name(), pooled.Name())
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

// Benchmark the transport wrappers' per-delivery cost — the hot path
// every data packet of a time-realism run goes through: the random
// draws, the latency added to the timeline, and the plain-field counts
// in the run's tally (no atomics; the tally flushes at run end).
func BenchmarkDelayHop(b *testing.B) {
	var tl Timeline
	var tally obs.Tally
	tl.Reset(true)
	inner := &Bernoulli{P: 0.2, R: rng.New(1)}
	ch := NewTimed(NewDelay(inner, DelayParams{Kind: DelayExp, A: 0.5}, 0.1, 0.05, rng.New(2), &tl), &tl, &tally)
	p := pkt(0, 1, 1)
	for i := 0; i < b.N; i++ {
		p.Now = uint64(i)
		_, paid := ch.DeliverHop(p)
		benchSink += paid
	}
}

func BenchmarkARQHop(b *testing.B) {
	var tl Timeline
	var tally obs.Tally
	tl.Reset(true)
	inner := &Bernoulli{P: 0.2, R: rng.New(1)}
	ch := NewTimed(NewARQ(inner, ARQParams{Retries: 3, Timeout: 1, Backoff: 2}, rng.New(2), &tl, &tally, nil), &tl, &tally)
	p := pkt(0, 1, 1)
	for i := 0; i < b.N; i++ {
		p.Now = uint64(i)
		_, paid := ch.DeliverHop(p)
		benchSink += paid
	}
}
