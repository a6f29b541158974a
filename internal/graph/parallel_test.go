package graph

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"geogossip/internal/geo"
	"geogossip/internal/par"
	"geogossip/internal/rng"
)

// workerCounts is the grid every serial-vs-parallel identity suite runs
// over: serial, the smallest real parallel split, and whatever the
// machine offers.
func workerCounts() []int {
	counts := []int{1, 2, par.NumCPU()}
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TestBuildWorkersByteIdentity asserts the tentpole contract for parallel
// construction: the packed flat/offsets arrays from BuildWorkers are
// byte-identical to the serial build at every worker count.
func TestBuildWorkersByteIdentity(t *testing.T) {
	for _, n := range []int{1, 17, 500, 3000} {
		pts := UniformPoints(n, rng.New(99).Stream("points"))
		radius := ConnectivityRadius(n, 1.5)
		serial, err := Build(pts, radius)
		if err != nil {
			t.Fatalf("serial build n=%d: %v", n, err)
		}
		for _, w := range workerCounts() {
			parg, err := BuildWorkers(pts, radius, w)
			if err != nil {
				t.Fatalf("parallel build n=%d workers=%d: %v", n, w, err)
			}
			if !reflect.DeepEqual(serial.offsets, parg.offsets) {
				t.Fatalf("n=%d workers=%d: offsets differ", n, w)
			}
			if !reflect.DeepEqual(serial.flat, parg.flat) {
				t.Fatalf("n=%d workers=%d: flat differs", n, w)
			}
			if serial.edges != parg.edges {
				t.Fatalf("n=%d workers=%d: edges %d != %d", n, w, parg.edges, serial.edges)
			}
		}
	}
}

// TestGenerateWorkersByteIdentity covers the draw path: points are always
// drawn serially, so the whole graph is worker-count invariant.
func TestGenerateWorkersByteIdentity(t *testing.T) {
	serial, err := Generate(800, 1.5, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts() {
		parg, err := GenerateWorkers(800, 1.5, rng.New(7), w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.points, parg.points) {
			t.Fatalf("workers=%d: points differ", w)
		}
		if !reflect.DeepEqual(serial.flat, parg.flat) || !reflect.DeepEqual(serial.offsets, parg.offsets) {
			t.Fatalf("workers=%d: adjacency differs", w)
		}
	}
}

// TestVoronoiAreasParallelByteIdentity asserts the clipped areas are
// bit-identical regardless of the worker count the graph was built with:
// each node's polygon chain is evaluated with the same float64 operation
// sequence whichever block it lands in.
func TestVoronoiAreasParallelByteIdentity(t *testing.T) {
	pts := UniformPoints(600, rng.New(42).Stream("points"))
	radius := ConnectivityRadius(600, 1.5)
	ref, err := BuildWorkers(pts, radius, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.VoronoiAreas()
	for _, w := range workerCounts() {
		g, err := BuildWorkers(pts, radius, w)
		if err != nil {
			t.Fatal(err)
		}
		got := g.VoronoiAreas()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d areas, want %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: area[%d] = %v, want %v", w, i, got[i], want[i])
			}
		}
	}
}

// TestBuildFlatPreSized guards the counting-pass fix: flat must be exactly
// sized (no append slack), so large-n construction never pays grow-copies.
func TestBuildFlatPreSized(t *testing.T) {
	g, err := Generate(1000, 1.5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if cap(g.flat) != len(g.flat) {
		t.Fatalf("flat cap %d != len %d: construction still over-allocates", cap(g.flat), len(g.flat))
	}
	if int(g.offsets[g.N()]) != len(g.flat) {
		t.Fatalf("offsets end %d != len(flat) %d", g.offsets[g.N()], len(g.flat))
	}
}

// referenceAdjacency assembles offsets and flat the way the per-node
// build did: one sorted WithinRadius query per node over the same cell
// index.
func referenceAdjacency(t *testing.T, pts []geo.Point, radius float64) (offsets, flat []int32) {
	t.Helper()
	idx, err := geo.NewCellIndex(pts, geo.UnitSquare(), min(radius, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	offsets = make([]int32, len(pts)+1)
	for i, p := range pts {
		flat = idx.WithinRadius(p, radius, int32(i), flat)
		offsets[i+1] = int32(len(flat))
	}
	return offsets, flat
}

// TestBuildMatchesPerNodeReference holds the windowed build to the
// per-node WithinRadius scan on degenerate inputs as well as uniform
// ones: duplicate points (d² = 0 between distinct ids), points on cell
// boundaries (many neighbours at exactly d² = r², and cell assignment at
// the floor's edge), and radii above 0.5, where the cell is capped at 0.5
// and the reach is more than one cell.
func TestBuildMatchesPerNodeReference(t *testing.T) {
	layouts := []struct {
		name string
		make func(n int, radius float64, r *rng.RNG) []geo.Point
	}{
		{"uniform", func(n int, _ float64, r *rng.RNG) []geo.Point {
			return UniformPoints(n, r)
		}},
		{"duplicates", func(n int, _ float64, r *rng.RNG) []geo.Point {
			pts := UniformPoints(n, r)
			for i := 2; i < n; i += 3 {
				pts[i] = pts[i-2]
			}
			return pts
		}},
		{"cell-boundaries", func(n int, radius float64, r *rng.RNG) []geo.Point {
			cell := min(radius, 0.5)
			lines := int(math.Ceil(1 / cell))
			at := func() float64 {
				return min(float64(r.IntN(lines))*cell, math.Nextafter(1, 0))
			}
			pts := make([]geo.Point, n)
			for i := range pts {
				pts[i] = geo.Pt(at(), at())
			}
			return pts
		}},
	}
	for _, n := range []int{0, 1, 2, 3, 8, 50, 300, 2000} {
		for _, c := range []float64{0.5, 1, 1.5, 3} {
			radius := ConnectivityRadius(n, c)
			for _, layout := range layouts {
				pts := layout.make(n, radius, rng.New(uint64(n)).Stream(layout.name))
				wantOffsets, wantFlat := referenceAdjacency(t, pts, radius)
				for _, w := range []int{1, 2, 3} {
					name := fmt.Sprintf("n=%d/c=%v/%s/workers=%d", n, c, layout.name, w)
					g, err := BuildWorkers(pts, radius, w)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(g.offsets, wantOffsets) || !slices.Equal(g.flat, wantFlat) {
						t.Fatalf("%s: adjacency differs from the per-node reference", name)
					}
				}
			}
		}
	}
}
