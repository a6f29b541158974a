package channel

import (
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/obs"
	"geogossip/internal/rng"
)

var benchSink int

// The benchmarks measure one engine tick's worth of medium work —
// Advance, Alive of the tick's owner, then DeliverHop, as the engines'
// exchange loops call them — on the traffic a medium sees from
// random-partner exchanges: they cycle a pre-drawn table of 4096 random
// endpoint pairs over uniform positions, so a data-dependent branch in a
// stage costs what it costs in a run, not what it costs on one packet
// repeated. Each medium is built through Spec, as engines build theirs.
const benchPairs = 4096

var benchPts, benchSrc, benchDst = func() ([]geo.Point, []int32, []int32) {
	r := rng.New(20261019)
	pts := make([]geo.Point, benchPairs)
	for i := range pts {
		pts[i] = geo.Pt(r.Float64(), r.Float64())
	}
	src, dst := make([]int32, benchPairs), make([]int32, benchPairs)
	for i := range src {
		src[i], dst[i] = int32(r.IntN(benchPairs)), int32(r.IntN(benchPairs))
	}
	return pts, src, dst
}()

// benchHops delivers b.N single-hop packets over the medium spec builds,
// with a live timeline and tally when the spec has transport components.
func benchHops(b *testing.B, spec Spec) {
	var tl Timeline
	var tally obs.Tally
	tl.Reset(spec.HasTransport())
	ch, err := spec.Build(benchPairs, Env{Points: benchPts, Timeline: &tl, Tally: &tally}, rng.New(1), rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPts
	if !spec.Spatial() {
		pts = nil // the engines' rule (sim.SpatialPoints)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (benchPairs - 1)
		now := uint64(i)
		ch.Advance(now)
		if !ch.Alive(benchSrc[k]) {
			continue
		}
		_, paid := ch.DeliverHop(NewPacket(pts, benchSrc[k], benchDst[k], 1, now))
		benchSink += paid
	}
}

func benchSpec(b *testing.B, text string) Spec {
	s, err := Parse(text)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkMediumHop prices the whole medium per delivery: the perfect
// medium every grid-ref exchange goes through, i.i.d. and burst loss
// alone, and the grid-faults workload's loss + jam + delay + ARQ + timed
// medium.
func BenchmarkMediumHop(b *testing.B) {
	for _, c := range []struct{ name, spec string }{
		{"perfect", "perfect"},
		{"bernoulli", "bernoulli:0.1"},
		{"gilbert-elliott", "ge:0.025/0.1/0.01/0.5"},
		{"grid-faults", "ge:0.025/0.1/0.01/0.5+jam:0.5/0.5/0.15/0.5+delay:exp/0.5+arq:3/1/2"},
	} {
		b.Run(c.name, func(b *testing.B) { benchHops(b, benchSpec(b, c.spec)) })
	}
}

// The field benchmarks price the per-delivery field evaluation, the hot
// path every data packet of a spatial-fault run goes through.
func BenchmarkFieldDiskHop(b *testing.B) {
	benchHops(b, benchSpec(b, "jam:0.5/0.5/0.2/0.5"))
}

func BenchmarkFieldMovingDiskHop(b *testing.B) {
	benchHops(b, benchSpec(b, "mjam:0.5/0.5/0.2/0.5/0.0001/0.00003"))
}

func BenchmarkFieldPolygonHop(b *testing.B) {
	benchHops(b, benchSpec(b, "jampoly:0.5/0.3/0.3/0.7/0.3/0.7/0.7/0.3/0.7"))
}

func BenchmarkPartitionHop(b *testing.B) {
	benchHops(b, Spec{Cut: CutParams{A: 1, C: 0.5, From: 0, Until: 1 << 62}})
}

// The transport benchmarks price the delay and ARQ stages: the random
// draws, the latency added to the timeline, and the plain-field counts
// in the run's tally (no atomics; the tally flushes at run end).
func BenchmarkDelayHop(b *testing.B) {
	benchHops(b, benchSpec(b, "bernoulli:0.2+delay:exp/0.5+reorder:0.1+dup:0.05"))
}

func BenchmarkARQHop(b *testing.B) {
	benchHops(b, benchSpec(b, "bernoulli:0.2+arq:3/1/2"))
}
