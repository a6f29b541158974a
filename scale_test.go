package geogossip

import (
	"math"
	"runtime"
	"testing"

	"geogossip/internal/rng"
)

func TestWithBuildWorkersByteIdentity(t *testing.T) {
	ref, err := NewNetwork(600, WithSeed(21), WithBuildWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, runtime.NumCPU(), 0} {
		nw, err := NewNetwork(600, WithSeed(21), WithBuildWorkers(w))
		if err != nil {
			t.Fatalf("build-workers=%d: %v", w, err)
		}
		if nw.Edges() != ref.Edges() || nw.HierarchyLevels() != ref.HierarchyLevels() {
			t.Fatalf("build-workers=%d: different network (edges %d vs %d)", w, nw.Edges(), ref.Edges())
		}
		a, b := ref.Positions(), nw.Positions()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("build-workers=%d: node %d placed differently", w, i)
			}
		}
		if nw.Footprint() != ref.Footprint() {
			t.Fatalf("build-workers=%d: footprint differs: %+v vs %+v", w, nw.Footprint(), ref.Footprint())
		}
	}
}

func TestNetworkFootprint(t *testing.T) {
	nw, err := NewNetwork(512, WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	f := nw.Footprint()
	if f.PointsBytes != 16*nw.N() {
		t.Fatalf("points footprint %d, want %d", f.PointsBytes, 16*nw.N())
	}
	if f.AdjacencyBytes == 0 || f.IndexBytes == 0 || f.HierarchyBytes == 0 {
		t.Fatalf("zero footprint component: %+v", f)
	}
	if f.VoronoiBytes != 0 {
		t.Fatalf("Voronoi areas should be lazy, got %d bytes before any geographic run", f.VoronoiBytes)
	}
	want := f.PointsBytes + f.AdjacencyBytes + f.IndexBytes + f.VoronoiBytes + f.HierarchyBytes
	if f.Total() != want {
		t.Fatalf("Total %d != component sum %d", f.Total(), want)
	}
	perNode := float64(f.Total()) / float64(nw.N())
	if perNode < 20 || perNode > 4096 {
		t.Fatalf("bytes/node %v out of plausible range", perNode)
	}
}

// TestScaleSmokeBoyd100k is the CI-sized slice of the million-node
// recipe (README "Scale"): parallel construction of a 10^5-node
// network plus a boyd run on a gaussian-style field, asserting
// convergence and the memory envelope. Skipped under -short; the full
// n=10^6 figures live in BENCH_engines.json.
func TestScaleSmokeBoyd100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-node construct+run smoke")
	}
	if raceDetectorEnabled {
		t.Skip("run without -race: the race detector makes this ~10x slower (CI runs it in its own step)")
	}
	const n = 100_000
	nw, err := NewNetwork(n, WithSeed(26), WithBuildWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(nw.Footprint().Total()) / float64(n)
	if perNode > 2048 {
		t.Fatalf("network footprint %v bytes/node blows the scale budget", perNode)
	}
	values := make([]float64, n)
	r := rng.New(27)
	for i := range values {
		values[i] = r.NormFloat64()
	}
	want := Mean(values)
	res, err := Boyd(WithTargetError(1e-2)).Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("boyd did not converge at n=%d: %+v", n, res)
	}
	if math.Abs(Mean(values)-want) > 1e-6 {
		t.Fatalf("mean drifted %v -> %v", want, Mean(values))
	}
}
