package graph

import (
	"math"
	"testing"
	"testing/quick"

	"geogossip/internal/geo"
	"geogossip/internal/rng"
)

func mustBuild(t *testing.T, pts []geo.Point, radius float64) *Graph {
	t.Helper()
	g, err := Build(pts, radius)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConnectivityRadius(t *testing.T) {
	if got := ConnectivityRadius(0, 1); got != 1 {
		t.Fatalf("n=0: %v", got)
	}
	if got := ConnectivityRadius(1, 1); got != 1 {
		t.Fatalf("n=1: %v", got)
	}
	want := 2 * math.Sqrt(math.Log(1000)/1000)
	if got := ConnectivityRadius(1000, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("n=1000 c=2: got %v want %v", got, want)
	}
	// Huge c is capped at the unit-square diagonal.
	if got := ConnectivityRadius(4, 100); got != math.Sqrt2 {
		t.Fatalf("cap: %v", got)
	}
	// Radius shrinks with n.
	if ConnectivityRadius(10000, 1.5) >= ConnectivityRadius(100, 1.5) {
		t.Fatal("radius should shrink with n")
	}
}

func TestBuildValidation(t *testing.T) {
	// Two points 0.01 apart: a radius that is not positive and finite is
	// an error, never an edgeless graph (or a complete one).
	pair := []geo.Point{geo.Pt(0.5, 0.5), geo.Pt(0.51, 0.5)}
	for _, radius := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.1} {
		for _, workers := range []int{1, 2} {
			if g, err := BuildWorkers(pair, radius, workers); err == nil {
				t.Errorf("radius %v workers %d accepted: %d edges", radius, workers, g.Edges())
			}
		}
	}
	// A huge finite radius reaches every cell without overflowing the
	// cell reach.
	if g, err := Build(pair, 1e300); err != nil {
		t.Fatalf("radius 1e300: %v", err)
	} else if g.Edges() != 1 {
		t.Fatalf("radius 1e300: %d edges, want 1", g.Edges())
	}
	if _, err := Build([]geo.Point{geo.Pt(1.5, 0.5)}, 0.1); err == nil {
		t.Fatal("point outside unit square accepted")
	}
	if _, err := Build([]geo.Point{geo.Pt(0.5, 1.0)}, 0.1); err == nil {
		t.Fatal("point on excluded top edge accepted")
	}
	g, err := Build(nil, 0.1)
	if err != nil {
		t.Fatalf("empty graph rejected: %v", err)
	}
	if g.N() != 0 || g.Edges() != 0 {
		t.Fatal("empty graph not empty")
	}
}

func TestAdjacencyMatchesBruteForce(t *testing.T) {
	r := rng.New(10)
	pts := UniformPoints(300, r)
	const radius = 0.09
	g := mustBuild(t, pts, radius)
	for i := int32(0); int(i) < len(pts); i++ {
		got := g.Neighbors(i)
		var want []int32
		for j := range pts {
			if int32(j) == i {
				continue
			}
			if pts[i].Dist2(pts[j]) <= radius*radius {
				want = append(want, int32(j))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbours, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("node %d: neighbour[%d] = %d, want %d", i, k, got[k], want[k])
			}
		}
		if g.Degree(i) != len(want) {
			t.Fatalf("node %d: Degree = %d, want %d", i, g.Degree(i), len(want))
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	g, err := Generate(500, 1.5, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if !g.HasEdge(j, i) {
				t.Fatalf("edge (%d,%d) present but (%d,%d) missing", i, j, j, i)
			}
		}
	}
}

func TestNoSelfLoops(t *testing.T) {
	g, err := Generate(300, 1.5, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); int(i) < g.N(); i++ {
		if g.HasEdge(i, i) {
			t.Fatalf("self loop at %d", i)
		}
	}
}

func TestHasEdge(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(0.15, 0.1), geo.Pt(0.9, 0.9)}
	g := mustBuild(t, pts, 0.1)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("near pair not adjacent")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 0) {
		t.Fatal("far pair adjacent")
	}
}

func TestEdgesCount(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(0.15, 0.1), geo.Pt(0.2, 0.1), geo.Pt(0.9, 0.9)}
	g := mustBuild(t, pts, 0.07)
	// Edges: (0,1), (1,2). Not (0,2): distance 0.1 > 0.07.
	if g.Edges() != 2 {
		t.Fatalf("Edges = %d, want 2", g.Edges())
	}
}

func TestIsConnected(t *testing.T) {
	line := []geo.Point{geo.Pt(0.1, 0.5), geo.Pt(0.2, 0.5), geo.Pt(0.3, 0.5), geo.Pt(0.4, 0.5)}
	g := mustBuild(t, line, 0.11)
	if !g.IsConnected() {
		t.Fatal("line graph should be connected")
	}
	g2 := mustBuild(t, line, 0.05)
	if g2.IsConnected() {
		t.Fatal("disconnected dots reported connected")
	}
	if !mustBuild(t, nil, 0.1).IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
	if !mustBuild(t, []geo.Point{geo.Pt(0.5, 0.5)}, 0.1).IsConnected() {
		t.Fatal("singleton should count as connected")
	}
}

func TestComponents(t *testing.T) {
	pts := []geo.Point{
		geo.Pt(0.1, 0.1), geo.Pt(0.15, 0.1), // component 0
		geo.Pt(0.8, 0.8), geo.Pt(0.85, 0.8), // component 1
		geo.Pt(0.5, 0.5), // isolated component 2
	}
	g := mustBuild(t, pts, 0.1)
	labels, k := g.Components()
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] || labels[4] == labels[0] || labels[4] == labels[2] {
		t.Fatalf("labels = %v", labels)
	}
	// Connected graph: one component.
	g2, err := Generate(400, 2.0, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if _, k := g2.Components(); g2.IsConnected() != (k == 1) {
		t.Fatalf("IsConnected=%v but k=%d", g2.IsConnected(), k)
	}
}

func TestBFSDistancesAndPath(t *testing.T) {
	// Chain 0-1-2-3-4.
	pts := []geo.Point{geo.Pt(0.1, 0.5), geo.Pt(0.2, 0.5), geo.Pt(0.3, 0.5), geo.Pt(0.4, 0.5), geo.Pt(0.5, 0.5)}
	g := mustBuild(t, pts, 0.11)
	dist := g.BFSDistances(0)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	path := g.BFSPath(0, 4)
	if len(path) != 5 || path[0] != 0 || path[4] != 4 {
		t.Fatalf("path = %v", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Fatalf("path step %d-%d is not an edge", path[i], path[i+1])
		}
	}
	if p := g.BFSPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("self path = %v", p)
	}
}

func TestBFSPathUnreachable(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(0.9, 0.9)}
	g := mustBuild(t, pts, 0.05)
	if p := g.BFSPath(0, 1); p != nil {
		t.Fatalf("unreachable path = %v", p)
	}
	dist := g.BFSDistances(0)
	if dist[1] != -1 {
		t.Fatalf("unreachable distance = %d", dist[1])
	}
}

func TestNearestTo(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(0.5, 0.5), geo.Pt(0.9, 0.9)}
	g := mustBuild(t, pts, 0.1)
	if got := g.NearestTo(geo.Pt(0.45, 0.45)); got != 1 {
		t.Fatalf("NearestTo = %d, want 1", got)
	}
	empty := mustBuild(t, nil, 0.1)
	if got := empty.NearestTo(geo.Pt(0.5, 0.5)); got != -1 {
		t.Fatalf("NearestTo on empty = %d", got)
	}
}

func TestNodesInRect(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.1), geo.Pt(0.3, 0.3), geo.Pt(0.6, 0.6)}
	g := mustBuild(t, pts, 0.1)
	got := g.NodesInRect(geo.NewRect(0, 0, 0.5, 0.5))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("NodesInRect = %v", got)
	}
}

func TestDegreeStats(t *testing.T) {
	pts := []geo.Point{geo.Pt(0.1, 0.5), geo.Pt(0.2, 0.5), geo.Pt(0.3, 0.5), geo.Pt(0.9, 0.9)}
	g := mustBuild(t, pts, 0.11)
	st := g.Degrees()
	if st.Min != 0 || st.Max != 2 || st.Isolated != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Mean-1.0) > 1e-12 { // degrees 1,2,1,0
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.TotalEdge != g.Edges() {
		t.Fatalf("TotalEdge = %d, Edges = %d", st.TotalEdge, g.Edges())
	}
	if (mustBuild(t, nil, 0.1).Degrees() != DegreeStats{}) {
		t.Fatal("empty graph stats not zero")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, err := Generate(200, 1.5, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(200, 1.5, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Edges() != g2.Edges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", g1.Edges(), g2.Edges())
	}
	for i := int32(0); int(i) < g1.N(); i++ {
		if g1.Point(i) != g2.Point(i) {
			t.Fatalf("same seed, different point %d", i)
		}
	}
}

func TestGenerateConnectedAtHighC(t *testing.T) {
	// c = 2 is comfortably above the threshold; all seeds should connect.
	for seed := uint64(0); seed < 5; seed++ {
		g, err := Generate(1000, 2.0, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatalf("seed %d: G(1000, 2.0·sqrt(log n/n)) disconnected", seed)
		}
	}
}

func TestMeanDegreeMatchesTheory(t *testing.T) {
	// E[deg] ≈ n·π·r² away from the boundary; the measured mean (including
	// boundary nodes) should be within a modest factor.
	const n = 4000
	const c = 1.5
	g, err := Generate(n, c, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	r := ConnectivityRadius(n, c)
	theory := float64(n) * math.Pi * r * r
	mean := g.Degrees().Mean
	if mean < 0.6*theory || mean > 1.1*theory {
		t.Fatalf("mean degree %v, theory %v", mean, theory)
	}
}

func TestUniformPointsInUnitSquare(t *testing.T) {
	pts := UniformPoints(5000, rng.New(15))
	sq := geo.UnitSquare()
	for _, p := range pts {
		if !sq.Contains(p) {
			t.Fatalf("point %v outside unit square", p)
		}
	}
}

func TestQuickBFSPathIsValidPath(t *testing.T) {
	g, err := Generate(300, 2.0, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Skip("instance disconnected")
	}
	dist0 := g.BFSDistances(0)
	f := func(aRaw, bRaw uint16) bool {
		a := int32(int(aRaw) % g.N())
		b := int32(int(bRaw) % g.N())
		p := g.BFSPath(a, b)
		if len(p) == 0 || p[0] != a || p[len(p)-1] != b {
			return false
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				return false
			}
		}
		// Shortest-path consistency for src 0.
		if a == 0 && int32(len(p)-1) != dist0[b] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
