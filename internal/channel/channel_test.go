package channel

import (
	"math"
	"reflect"
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

// pkt builds a positionless delivery context — sufficient for the
// non-spatial media these tests exercise.
func pkt(src, dst int32, hops int) Packet {
	return Packet{Src: src, Dst: dst, Hops: hops}
}

func TestPerfectDeliversEverything(t *testing.T) {
	var ch Channel = Perfect{}
	ch.Advance(12345)
	if !ch.Alive(0) || !ch.Alive(999) {
		t.Fatal("perfect channel reported a dead node")
	}
	if ok, paid := ch.DeliverHop(pkt(1, 2, 1)); !ok || paid != 0 {
		t.Fatalf("DeliverHop = %v, %d", ok, paid)
	}
	if ok, paid := ch.DeliverRoute(pkt(1, 2, 17)); !ok || paid != 0 {
		t.Fatalf("DeliverRoute = %v, %d", ok, paid)
	}
	if ok, paid := ch.DeliverRoundTrip(pkt(1, 2, 17)); !ok || paid != 0 {
		t.Fatalf("DeliverRoundTrip = %v, %d", ok, paid)
	}
}

// TestBernoulliDrawCompatibility pins the draw sequence Bernoulli makes
// against the inline checks the engines used before the channel existed:
// the refactor's bit-identical-results guarantee rests on it.
func TestBernoulliDrawCompatibility(t *testing.T) {
	const p = 0.3
	ch := &Bernoulli{P: p, R: rng.New(77)}
	ref := rng.New(77)
	for i := 0; i < 2000; i++ {
		switch i % 3 {
		case 0: // single-hop: one Bernoulli, never a failure-point draw
			ok, paid := ch.DeliverHop(pkt(0, 1, 1))
			lost := ref.Bernoulli(p)
			if ok != !lost {
				t.Fatalf("step %d: hop verdict %v, reference lost=%v", i, ok, lost)
			}
			if !ok && paid != 1 {
				t.Fatalf("step %d: lost hop paid %d, want 1", i, paid)
			}
		case 1: // route leg: one Bernoulli, then IntN(hops) only on loss
			hops := 1 + i%7
			ok, paid := ch.DeliverRoute(pkt(0, 1, hops))
			lost := ref.Bernoulli(p)
			if ok != !lost {
				t.Fatalf("step %d: route verdict %v, reference lost=%v", i, ok, lost)
			}
			if lost {
				want := 1 + ref.IntN(hops)
				if paid != want {
					t.Fatalf("step %d: lost route paid %d, want %d", i, paid, want)
				}
			}
		default: // round trip: one combined Bernoulli, IntN(2*hops) on loss
			hops := 1 + i%5
			ok, paid := ch.DeliverRoundTrip(pkt(0, 1, hops))
			lost := ref.Bernoulli(1 - (1-p)*(1-p))
			if ok != !lost {
				t.Fatalf("step %d: round-trip verdict %v, reference lost=%v", i, ok, lost)
			}
			if lost {
				want := 1 + ref.IntN(2*hops)
				if paid != want {
					t.Fatalf("step %d: lost round trip paid %d, want %d", i, paid, want)
				}
			}
		}
	}
}

func TestBernoulliZeroRateConsumesNoRandomness(t *testing.T) {
	r := rng.New(5)
	ch := &Bernoulli{P: 0, R: r}
	for i := 0; i < 100; i++ {
		if ok, _ := ch.DeliverRoute(pkt(0, 1, 9)); !ok {
			t.Fatal("zero-rate channel lost a packet")
		}
	}
	if got, want := r.Uint64(), rng.New(5).Uint64(); got != want {
		t.Fatalf("zero-rate channel consumed randomness: %d != %d", got, want)
	}
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	p := GEParams{PGoodToBad: 0.05, PBadToGood: 0.2, LossGood: 0.01, LossBad: 0.6}
	ch := NewGilbertElliott(p, rng.New(9))
	const trials = 200_000
	lost := 0
	for i := 0; i < trials; i++ {
		if ok, _ := ch.DeliverHop(pkt(0, 1, 1)); !ok {
			lost++
		}
	}
	got := float64(lost) / trials
	want := p.StationaryLoss()
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical loss %v, stationary %v", got, want)
	}
}

func TestGilbertElliottLossesCluster(t *testing.T) {
	// Burst loss with the same marginal rate as an i.i.d. channel must
	// show a higher loss-after-loss conditional probability.
	p := GEParams{PGoodToBad: 0.02, PBadToGood: 0.1, LossGood: 0.01, LossBad: 0.8}
	ch := NewGilbertElliott(p, rng.New(10))
	const trials = 300_000
	var losses, pairs, lossAfterLoss int
	prevLost := false
	for i := 0; i < trials; i++ {
		ok, _ := ch.DeliverHop(pkt(0, 1, 1))
		lost := !ok
		if lost {
			losses++
		}
		if prevLost {
			pairs++
			if lost {
				lossAfterLoss++
			}
		}
		prevLost = lost
	}
	marginal := float64(losses) / trials
	conditional := float64(lossAfterLoss) / float64(pairs)
	if conditional < 2*marginal {
		t.Fatalf("losses not bursty: P(loss|loss)=%v vs marginal %v", conditional, marginal)
	}
}

func TestChurnKillsAndRevives(t *testing.T) {
	const n = 400
	ch := NewChurn(Perfect{}, n, ChurnParams{MeanUp: 1000, MeanDown: 500}, rng.New(11))
	ch.Advance(0)
	if got := ch.AliveCount(); got != n {
		t.Fatalf("at t=0 %d alive, want all %d", got, n)
	}
	ch.Advance(1500)
	mid := ch.AliveCount()
	if mid == n || mid == 0 {
		t.Fatalf("at t=1500 expected partial liveness, got %d/%d", mid, n)
	}
	// With revival, some node down at 1500 must be back up later.
	downAt1500 := make([]int32, 0)
	for i := int32(0); i < n; i++ {
		if !ch.Alive(i) {
			downAt1500 = append(downAt1500, i)
		}
	}
	ch.Advance(50_000)
	revived := false
	for _, i := range downAt1500 {
		if ch.Alive(i) {
			revived = true
			break
		}
	}
	if !revived {
		t.Fatal("no node revived despite MeanDown > 0")
	}
}

func TestChurnCrashStopIsPermanent(t *testing.T) {
	const n = 300
	ch := NewChurn(Perfect{}, n, ChurnParams{MeanUp: 100}, rng.New(12))
	ch.Advance(1_000_000)
	if got := ch.AliveCount(); got != 0 {
		t.Fatalf("crash-stop after 10000 mean lifetimes left %d alive", got)
	}
}

func TestChurnLivenessIndependentOfQueryOrder(t *testing.T) {
	const n = 128
	build := func() *Churn {
		return NewChurn(Perfect{}, n, ChurnParams{MeanUp: 700, MeanDown: 300}, rng.New(13))
	}
	a, b := build(), build()
	a.Advance(5000)
	b.Advance(5000)
	// a queried ascending, b descending and repeatedly: same answers.
	for i := int32(n) - 1; i >= 0; i-- {
		b.Alive(i)
		b.Alive(i)
	}
	for i := int32(0); i < n; i++ {
		if a.Alive(i) != b.Alive(i) {
			t.Fatalf("node %d liveness depends on query order", i)
		}
	}
}

func TestChurnBlocksDelivery(t *testing.T) {
	const n = 50
	ch := NewChurn(Perfect{}, n, ChurnParams{MeanUp: 100}, rng.New(14))
	ch.Advance(100_000) // everyone dead
	if ok, paid := ch.DeliverHop(pkt(1, 2, 1)); ok || paid != 0 {
		t.Fatalf("dead src delivered (ok=%v paid=%d)", ok, paid)
	}
	ch2 := NewChurn(Perfect{}, n, ChurnParams{MeanUp: 1e12}, rng.New(14))
	ch2.Advance(10)
	if ok, _ := ch2.DeliverHop(pkt(1, 2, 1)); !ok {
		t.Fatal("live pair failed to deliver through perfect inner channel")
	}
	// Force one dead endpoint: find a dead node at an intermediate time.
	ch3 := NewChurn(Perfect{}, n, ChurnParams{MeanUp: 1000}, rng.New(15))
	ch3.Advance(2000)
	var dead, live int32 = -1, -1
	for i := int32(0); i < n; i++ {
		if ch3.Alive(i) {
			live = i
		} else {
			dead = i
		}
	}
	if dead < 0 || live < 0 {
		t.Skip("no mixed liveness at this seed/time")
	}
	if ok, paid := ch3.DeliverRoute(pkt(live, dead, 7)); ok || paid != 7 {
		t.Fatalf("route to dead endpoint: ok=%v paid=%d, want false, 7", ok, paid)
	}
	if ok, paid := ch3.DeliverRoundTrip(pkt(live, dead, 7)); ok || paid != 7 {
		t.Fatalf("round trip to dead endpoint: ok=%v paid=%d, want false, 7", ok, paid)
	}
}

func TestSpecParseRoundTrip(t *testing.T) {
	cases := []string{
		"perfect",
		"bernoulli:0.2",
		"ge:0.05/0.2/0.01/0.6",
		"churn:50000/10000",
		"bernoulli:0.1+churn:1000/0",
		"ge:0.02/0.1/0/0.8+churn:5000/2500",
	}
	for _, text := range cases {
		s, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)) = %q: %v", text, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip %q -> %v -> %v", text, s, back)
		}
	}
	if s, err := Parse(""); err != nil || !s.IsZero() {
		t.Fatalf("empty spec: %v, %v", s, err)
	}
}

func TestSpecParseRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"bogus",
		"bernoulli",
		"bernoulli:1.5",
		"bernoulli:-0.1",
		"bernoulli:0.1+bernoulli:0.2",
		"ge:0.1/0.2",
		"ge:0.1/0.2/0.3/1.7",
		"churn:100",
		"churn:-5/0",
		"churn:100/0+churn:100/0",
		"jam:0.5/0.5/0.2/0.9/0/0", // empty window would silently mean always-on
		"jam:0.5/0.5/0.2/0.9/200/100",
		"jampoly:0.5/0/1/7/2/7/0", // clockwise winding
		"cut:0/0/0.5/0/100",       // degenerate line
		"cut:0/0/0/0/0",           // all-zero would silently mean no cut
		"jam:0.5/0.5/nan/0.9",     // NaN passes every range check
		"cut:nan/0/0.5/0/400000",
		"bernoulli:inf",
		"hubchurn:100/0/0",
	} {
		if _, err := Parse(text); err == nil {
			t.Fatalf("Parse(%q) accepted garbage", text)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	disk := func(center, vel geo.Point) []FieldParams {
		return []FieldParams{{Kind: FieldDisk, Center: center, Radius: 0.2, Loss: 0.5, Vel: vel}}
	}
	square := func(corner geo.Point) []FieldParams {
		return []FieldParams{{Kind: FieldPolygon, Loss: 0.5, Poly: []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(1, 1), corner}}}
	}
	bad := []Spec{
		{LossRate: 0.5}, // rate without model
		{Loss: LossBernoulli, LossRate: -1},
		{Loss: LossBernoulli, LossRate: 2},
		{Loss: LossGilbertElliott, GE: GEParams{PGoodToBad: 1.5}},
		{Churn: ChurnParams{MeanUp: -1}},
		{Churn: ChurnParams{MeanDown: 5}}, // down without up
		// Non-finite parameters: NaN passes every range check, +Inf
		// every one-sided one.
		{Loss: LossBernoulli, LossRate: nan},
		{Loss: LossGilbertElliott, GE: GEParams{PGoodToBad: nan}},
		{Loss: LossGilbertElliott, GE: GEParams{PBadToGood: nan}},
		{Loss: LossGilbertElliott, GE: GEParams{LossGood: nan}},
		{Loss: LossGilbertElliott, GE: GEParams{LossBad: nan}},
		{Fields: disk(geo.Pt(nan, 0.5), geo.Point{})},
		{Fields: disk(geo.Pt(0.5, inf), geo.Point{})},
		{Fields: disk(geo.Pt(0.5, 0.5), geo.Pt(nan, 0))},
		{Fields: disk(geo.Pt(0.5, 0.5), geo.Pt(0, inf))},
		{Fields: square(geo.Pt(nan, 1))},
		{Fields: square(geo.Pt(0, inf))},
		{Churn: ChurnParams{MeanUp: nan}},
		{Churn: ChurnParams{MeanUp: inf}},
		{Churn: ChurnParams{MeanUp: 100, MeanDown: nan}},
		{Churn: ChurnParams{MeanUp: 100, MeanDown: inf}},
		{Delay: DelayParams{Kind: DelayFixed, A: nan}},
		{Delay: DelayParams{Kind: DelayFixed, A: inf}},
		{Delay: DelayParams{Kind: DelayUniform, B: nan}},
		{Delay: DelayParams{Kind: DelayUniform, B: inf}},
		{Delay: DelayParams{Kind: DelayFixed, A: 1}, Reorder: nan},
		{Dup: nan},
		{ARQ: ARQParams{Retries: 2, Timeout: nan, Backoff: 2}},
		{ARQ: ARQParams{Retries: 2, Timeout: inf, Backoff: 2}},
		{ARQ: ARQParams{Retries: 2, Timeout: 1, Backoff: nan}},
		{ARQ: ARQParams{Retries: 2, Timeout: 1, Backoff: inf}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("spec %d (%+v) validated", i, s)
		}
	}
}

func TestSpecBuildSelectsImplementation(t *testing.T) {
	lr, cr := rng.New(1), rng.New(2)
	build := func(s Spec) Channel {
		t.Helper()
		ch, err := s.Build(10, Env{}, lr, cr)
		if err != nil {
			t.Fatalf("Build(%v): %v", s, err)
		}
		return ch
	}
	if _, ok := build(Spec{}).(Perfect); !ok {
		t.Fatal("zero spec did not build Perfect")
	}
	if _, ok := build(Spec{Loss: LossBernoulli, LossRate: 0.1}).(*Bernoulli); !ok {
		t.Fatal("bernoulli spec did not build Bernoulli")
	}
	if _, ok := build(Spec{Loss: LossGilbertElliott, GE: GEParams{LossBad: 0.5}}).(*GilbertElliott); !ok {
		t.Fatal("ge spec did not build GilbertElliott")
	}
	ch := build(Spec{Loss: LossBernoulli, LossRate: 0.1, Churn: ChurnParams{MeanUp: 100}})
	cc, ok := ch.(*Churn)
	if !ok {
		t.Fatal("churn spec did not build Churn")
	}
	if cc.Name() != "bernoulli+churn" {
		t.Fatalf("composed name %q", cc.Name())
	}
}

func TestExpectedLossRate(t *testing.T) {
	if got := (Spec{Loss: LossBernoulli, LossRate: 0.25}).ExpectedLossRate(); got != 0.25 {
		t.Fatalf("bernoulli expected loss %v", got)
	}
	ge := Spec{Loss: LossGilbertElliott, GE: GEParams{PGoodToBad: 0.1, PBadToGood: 0.1, LossGood: 0, LossBad: 0.5}}
	if got := ge.ExpectedLossRate(); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("ge expected loss %v, want 0.25", got)
	}
}

// TestPoolBuildDrawCompatible proves a pooled channel replays a fresh
// one bit for bit: same deliveries, same paid costs, same liveness —
// across every loss/spatial/churn composition — and that reuse of the
// same Pool across different specs stays clean.
func TestPoolBuildDrawCompatible(t *testing.T) {
	specs := []string{
		"perfect",
		"bernoulli:0.3",
		"ge:0.05/0.2/0.01/0.6",
		"churn:500/200",
		"jam:0.5/0.5/0.3/0.8",
		"jam:0.5/0.5/0.3/0.8+churn:500/200",
		"cut:1/0/0.5/100/500+bernoulli:0.2",
	}
	const n = 64
	pts := make([]geo.Point, n)
	posRNG := rng.New(3)
	for i := range pts {
		pts[i] = geo.Pt(posRNG.Float64(), posRNG.Float64())
	}
	env := Env{Points: pts}
	pool := &Pool{}
	for _, text := range specs {
		spec, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := spec.Build(n, env, rng.New(10), rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := spec.BuildWith(pool, n, env, rng.New(10), rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		driver := rng.New(12)
		for step := 0; step < 4000; step++ {
			now := uint64(step)
			fresh.Advance(now)
			pooled.Advance(now)
			src := int32(driver.IntN(n))
			dst := int32(driver.IntN(n))
			p := Packet{Src: src, Dst: dst, SrcPos: pts[src], DstPos: pts[dst], Hops: 1 + driver.IntN(5), Now: now}
			switch step % 3 {
			case 0:
				okF, paidF := fresh.DeliverHop(p)
				okP, paidP := pooled.DeliverHop(p)
				if okF != okP || paidF != paidP {
					t.Fatalf("%s step %d: hop diverged (%v/%d vs %v/%d)", text, step, okF, paidF, okP, paidP)
				}
			case 1:
				okF, paidF := fresh.DeliverRoute(p)
				okP, paidP := pooled.DeliverRoute(p)
				if okF != okP || paidF != paidP {
					t.Fatalf("%s step %d: route diverged", text, step)
				}
			default:
				okF, paidF := fresh.DeliverRoundTrip(p)
				okP, paidP := pooled.DeliverRoundTrip(p)
				if okF != okP || paidF != paidP {
					t.Fatalf("%s step %d: round trip diverged", text, step)
				}
			}
			if a, b := fresh.Alive(src), pooled.Alive(src); a != b {
				t.Fatalf("%s step %d: liveness diverged for %d", text, step, src)
			}
		}
	}
}
