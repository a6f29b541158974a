package channel

import (
	"fmt"
	"reflect"
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
)

// oracleNodes is the node count of the oracle's network.
const oracleNodes = 64

// oracleNet is the network the oracle's media bind to: uniform
// positions, a random set of representatives and a random degree order.
type oracleNet struct {
	pts  []geo.Point
	reps []int32
	hubs []int32
}

func newOracleNet(seed uint64) oracleNet {
	r := rng.New(seed)
	var net oracleNet
	net.pts = make([]geo.Point, oracleNodes)
	for i := range net.pts {
		net.pts[i] = geo.Pt(r.Float64(), r.Float64())
	}
	for i := int32(0); i < oracleNodes; i++ {
		if r.Bernoulli(0.25) {
			net.reps = append(net.reps, i)
		}
	}
	for _, i := range r.Perm(oracleNodes) {
		net.hubs = append(net.hubs, int32(i))
	}
	return net
}

// oracleSpec is randomSpec with ARQ's timeout zeroed a third of the
// time, so the oracle covers ARQ with and without jitter draws.
func oracleSpec(r *rng.RNG) Spec {
	s := randomSpec(r)
	if !s.ARQ.IsZero() && r.Bernoulli(1.0/3) {
		s.ARQ.Timeout = 0
	}
	return s
}

// oracleSide is one medium under the oracle with the run-local state it
// writes to and the streams it draws from.
type oracleSide struct {
	ch     Channel
	tl     Timeline
	tally  obs.Tally
	tr     collect
	lr, cr *rng.RNG
}

func (o *oracleSide) env(net oracleNet, timed bool) Env {
	env := Env{Points: net.pts, Reps: net.reps, HubOrder: net.hubs, Tally: &o.tally, Tracer: &o.tr}
	if timed {
		env.Timeline = &o.tl
	}
	return env
}

// matchReference builds spec as a Medium on pool and as the reference
// wrapper chain, drives both through one random sequence of monotone
// Advance calls, Alive queries and all three delivery shapes drawn from
// pktSeed, and requires identical verdicts, charges and liveness, and at
// the end identical timelines, tallies, traced events and stream
// positions: the loss stream, each started node's churn schedule
// stream, and the delay and ARQ streams.
func matchReference(t testing.TB, spec Spec, pool *Pool, net oracleNet, pktSeed uint64) {
	t.Helper()
	r := rng.New(pktSeed)
	timed := r.Bernoulli(0.8)
	lossSeed, churnSeed := r.Uint64(), r.Uint64()
	ref, med := &oracleSide{}, &oracleSide{}
	ref.tl.Reset(spec.HasTransport())
	med.tl.Reset(spec.HasTransport())
	ref.lr, ref.cr = rng.New(lossSeed), rng.New(churnSeed)
	med.lr, med.cr = rng.New(lossSeed), rng.New(churnSeed)
	var rp refPool
	var err, refErr error
	ref.ch, refErr = buildReference(spec, &rp, oracleNodes, ref.env(net, timed), ref.lr, ref.cr)
	m, err := spec.BuildWith(pool, oracleNodes, med.env(net, timed), med.lr, med.cr)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%q: build error %v, reference %v", spec, err, refErr)
	}
	if err != nil {
		return
	}
	med.ch = m

	const steps = 400
	var now uint64
	for step := 0; step < steps; step++ {
		// Monotone time: fine steps through the field and cut windows
		// first, then coarse ones through the churn schedules.
		if step < steps/2 {
			now += uint64(r.IntN(40))
		} else {
			now += uint64(r.IntN(2000))
		}
		ref.ch.Advance(now)
		med.ch.Advance(now)
		src, dst := int32(r.IntN(oracleNodes)), int32(r.IntN(oracleNodes))
		hops := r.IntN(21)
		p := Packet{Src: src, Dst: dst, SrcPos: net.pts[src], DstPos: net.pts[dst], Hops: hops, Now: now}
		var okR, okM bool
		var paidR, paidM int
		var what string
		switch r.IntN(4) {
		case 0:
			if a, b := ref.ch.Alive(src), med.ch.Alive(src); a != b {
				t.Fatalf("%q step %d t=%d: Alive(%d) %v, reference %v", spec, step, now, src, b, a)
			}
			continue
		case 1:
			p.Hops, what = 1, "hop"
			okR, paidR = ref.ch.DeliverHop(p)
			okM, paidM = med.ch.DeliverHop(p)
		case 2:
			what = "route"
			okR, paidR = ref.ch.DeliverRoute(p)
			okM, paidM = med.ch.DeliverRoute(p)
		default:
			what = "round trip"
			okR, paidR = ref.ch.DeliverRoundTrip(p)
			okM, paidM = med.ch.DeliverRoundTrip(p)
		}
		if okR != okM || paidR != paidM {
			t.Fatalf("%q step %d t=%d: %s %d->%d (%d hops) = %v, %d; reference %v, %d",
				spec, step, now, what, src, dst, p.Hops, okM, paidM, okR, paidR)
		}
	}

	if a, b := ref.tl.High(), med.tl.High(); a != b {
		t.Fatalf("%q: timeline high %v, reference %v", spec, b, a)
	}
	if ref.tally != med.tally {
		t.Fatalf("%q: tally\n %+v\nreference\n %+v", spec, med.tally, ref.tally)
	}
	if !reflect.DeepEqual(ref.tr.events, med.tr.events) {
		t.Fatalf("%q: traced %d events, reference %d (or their contents differ)", spec, len(med.tr.events), len(ref.tr.events))
	}
	sameStream(t, ref.lr, med.lr, fmt.Sprintf("%q loss stream", spec))
	if spec.HasChurn() {
		for i := range rp.churn.nodes {
			a, b := &rp.churn.nodes[i], &m.nodes[i]
			if a.started != b.started || a.alive != b.alive || a.nextFlip != b.nextFlip {
				t.Fatalf("%q: node %d schedule %v/%v/%d, reference %v/%v/%d", spec, i,
					b.started, b.alive, b.nextFlip, a.started, a.alive, a.nextFlip)
			}
			if a.started {
				sameStream(t, a.r, b.r, fmt.Sprintf("%q node %d churn stream", spec, i))
			}
		}
	}
	if spec.HasDelayLayer() {
		sameStream(t, rp.delayRNG, m.delayR, fmt.Sprintf("%q delay stream", spec))
	}
	if !spec.ARQ.IsZero() {
		sameStream(t, rp.arqRNG, m.arqR, fmt.Sprintf("%q arq stream", spec))
	}
}

// TestMediumMatchesReference is the pipeline's oracle: over the perfect
// medium, each loss model alone, the grid-faults workload's medium, the
// scheduled-transport media of the pinned sink digests and thousands of
// generated specs covering every component, a Medium built on one kept
// Pool behaves exactly as the nested wrappers it replaced, built fresh.
func TestMediumMatchesReference(t *testing.T) {
	net := newOracleNet(1)
	var pool Pool
	fixed := []string{
		"perfect",
		"bernoulli:0.3",
		"ge:0.05/0.2/0.01/0.6",
		"ge:0.025/0.1/0.01/0.5+jam:0.5/0.5/0.15/0.5+delay:exp/0.5+arq:3/1/2",
		"jam:0.5/0.5/0.3/0.8/2000/6000/8000+cut:1/0/0.5/3000/9000+churn:400/100+delay:exp/3+arq:3/1/2",
		"jam:0.5/0.5/0.3/0.8/2000/6000/8000+cut:1/0/0.5/3000/9000+churn:400/100+delay:uniform/0.5/4+reorder:0.2+dup:0.1",
	}
	for i, text := range fixed {
		for seed := uint64(0); seed < 20; seed++ {
			matchReference(t, mustParse(t, text), &pool, net, 100*uint64(i)+seed)
		}
	}
	r := rng.New(20261019)
	var covered stage
	for i := 0; i < 2000; i++ {
		spec := oracleSpec(r)
		matchReference(t, spec, &pool, net, r.Uint64())
		covered |= pool.m.stages
	}
	if want := ^stage(0); covered != want {
		t.Fatalf("generated specs built stages %08b, want every stage %08b", covered, want)
	}
}

// FuzzMediumMatchesReference runs the oracle of TestMediumMatchesReference
// on the spec a seed generates and the delivery sequence a second seed
// draws.
func FuzzMediumMatchesReference(f *testing.F) {
	for _, seeds := range [][2]uint64{{1, 2}, {3, 4}, {20261019, 7}, {42, 42}} {
		f.Add(seeds[0], seeds[1])
	}
	net := newOracleNet(1)
	f.Fuzz(func(t *testing.T, specSeed, pktSeed uint64) {
		matchReference(t, oracleSpec(rng.New(specSeed)), nil, net, pktSeed)
	})
}
