package geo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"geogossip/internal/rng"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{0.5, 0.5}, Point{0.5, 0.5}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"345", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Dist = %v, want %v", got, tc.want)
			}
			if got := tc.p.Dist2(tc.q); math.Abs(got-tc.want*tc.want) > 1e-12 {
				t.Fatalf("Dist2 = %v, want %v", got, tc.want*tc.want)
			}
		})
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a := Point{clampF(ax), clampF(ay)}
		b := Point{clampF(bx), clampF(by)}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 2000; i++ {
		a := Point{r.Float64(), r.Float64()}
		b := Point{r.Float64(), r.Float64()}
		c := Point{r.Float64(), r.Float64()}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-12 {
			t.Fatalf("triangle inequality violated: %v %v %v", a, b, c)
		}
	}
}

func clampF(v float64) float64 {
	if math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1000)
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 2, 4}
	if r.Width() != 2 || r.Height() != 4 || r.Area() != 8 {
		t.Fatalf("rect dims wrong: %v %v %v", r.Width(), r.Height(), r.Area())
	}
	if got := r.Center(); got != (Point{1, 2}) {
		t.Fatalf("Center = %v", got)
	}
	if math.Abs(r.Diagonal()-math.Sqrt(20)) > 1e-12 {
		t.Fatalf("Diagonal = %v", r.Diagonal())
	}
	if r.IsEmpty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !(Rect{1, 1, 1, 2}).IsEmpty() {
		t.Fatal("zero-width rect not reported empty")
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := Rect{0, 0, 1, 1}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{0.5, 0.5}, true},
		{Point{1, 0.5}, false}, // right edge excluded
		{Point{0.5, 1}, false}, // top edge excluded
		{Point{-0.001, 0.5}, false},
		{Point{0.999999, 0.999999}, true},
	}
	for _, tc := range cases {
		if got := r.Contains(tc.p); got != tc.want {
			t.Fatalf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestSplitGridPartition(t *testing.T) {
	// Every random point must land in exactly one grid cell: the cells
	// tile the parent rectangle.
	parent := UnitSquare()
	r := rng.New(2)
	for _, k := range []int{1, 2, 3, 4, 7, 10} {
		cells := parent.SplitGrid(k)
		if len(cells) != k*k {
			t.Fatalf("SplitGrid(%d) returned %d cells", k, len(cells))
		}
		var area float64
		for _, c := range cells {
			area += c.Area()
		}
		if math.Abs(area-parent.Area()) > 1e-9 {
			t.Fatalf("k=%d: cells cover area %v, parent %v", k, area, parent.Area())
		}
		for i := 0; i < 500; i++ {
			p := Point{r.Float64(), r.Float64()}
			owners := 0
			owner := -1
			for ci, c := range cells {
				if c.Contains(p) {
					owners++
					owner = ci
				}
			}
			if owners != 1 {
				t.Fatalf("k=%d: point %v in %d cells", k, p, owners)
			}
			row, col := parent.GridCellOf(p, k)
			if row*k+col != owner {
				t.Fatalf("k=%d: GridCellOf(%v) = (%d,%d), but containing cell is %d", k, p, row, col, owner)
			}
		}
	}
}

func TestSplitGridRowMajorLayout(t *testing.T) {
	cells := UnitSquare().SplitGrid(2)
	// Row-major: index 0 is bottom-left, 1 bottom-right, 2 top-left, 3 top-right.
	if !cells[0].Contains(Point{0.25, 0.25}) {
		t.Fatal("cell 0 should be bottom-left")
	}
	if !cells[1].Contains(Point{0.75, 0.25}) {
		t.Fatal("cell 1 should be bottom-right")
	}
	if !cells[2].Contains(Point{0.25, 0.75}) {
		t.Fatal("cell 2 should be top-left")
	}
	if !cells[3].Contains(Point{0.75, 0.75}) {
		t.Fatal("cell 3 should be top-right")
	}
}

func TestSplitGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitGrid(0) did not panic")
		}
	}()
	UnitSquare().SplitGrid(0)
}

func TestGridCellOfClamps(t *testing.T) {
	r := UnitSquare()
	row, col := r.GridCellOf(Point{-5, -5}, 4)
	if row != 0 || col != 0 {
		t.Fatalf("GridCellOf outside low = (%d,%d)", row, col)
	}
	row, col = r.GridCellOf(Point{5, 5}, 4)
	if row != 3 || col != 3 {
		t.Fatalf("GridCellOf outside high = (%d,%d)", row, col)
	}
}

func TestClip(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 3, 3}
	got := a.Clip(b)
	want := Rect{1, 1, 2, 2}
	if got != want {
		t.Fatalf("Clip = %v, want %v", got, want)
	}
	disjoint := a.Clip(Rect{5, 5, 6, 6})
	if !disjoint.IsEmpty() {
		t.Fatalf("Clip of disjoint rects = %v, want empty", disjoint)
	}
}

func randomPoints(n int, seed uint64) []Point {
	r := rng.New(seed)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64(), r.Float64()}
	}
	return pts
}

func TestCellIndexWithinRadiusMatchesBruteForce(t *testing.T) {
	pts := randomPoints(400, 3)
	const radius = 0.08
	idx, err := NewCellIndex(pts, UnitSquare(), radius)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		got := idx.WithinRadius(pts[i], radius, int32(i), nil)
		var want []int32
		for j := range pts {
			if j == i {
				continue
			}
			if pts[i].Dist2(pts[j]) <= radius*radius {
				want = append(want, int32(j))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %d: got %d neighbours, want %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("point %d neighbour %d: got %d, want %d", i, k, got[k], want[k])
			}
		}
	}
}

func TestCellIndexWithinRadiusLargerThanCell(t *testing.T) {
	// Radius larger than the cell size must still return correct results
	// (the scan widens).
	pts := randomPoints(300, 4)
	idx, err := NewCellIndex(pts, UnitSquare(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 0.17
	for i := 0; i < 50; i++ {
		got := idx.WithinRadius(pts[i], radius, int32(i), nil)
		count := 0
		for j := range pts {
			if j != i && pts[i].Dist2(pts[j]) <= radius*radius {
				count++
			}
		}
		if len(got) != count {
			t.Fatalf("point %d: got %d neighbours, want %d", i, len(got), count)
		}
	}
}

// TestCellIndexWindows checks every window against WithinRadius from each
// of its members, on a grid whose cells are smaller than the radius (a
// 9×9-cell reach) and at several worker counts: the window is sorted,
// carries its points alongside, holds each member once, and filtering
// it reproduces the member's sorted neighbour list.
func TestCellIndexWindows(t *testing.T) {
	pts := randomPoints(600, 9)
	pts = append(pts, pts[:40]...) // duplicates share a position
	idx, err := NewCellIndex(pts, UnitSquare(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const radius = 0.17
	for _, workers := range []int{1, 3} {
		got := make([][]int32, len(pts))
		visited := make([]int, len(pts))
		idx.Windows(radius, workers, func(members, ids []int32, wpts []Point) {
			if !slices.IsSorted(ids) || len(wpts) != len(ids) {
				t.Errorf("window of %d ids unsorted or with %d points", len(ids), len(wpts))
				return
			}
			for k, j := range ids {
				if wpts[k] != pts[j] {
					t.Errorf("window point %d is %v, want point %d = %v", k, wpts[k], j, pts[j])
					return
				}
			}
			for _, i := range members {
				visited[i]++
				var row []int32
				self := 0
				for k, j := range ids {
					if j == i {
						self++
					} else if wpts[k].Dist2(pts[i]) <= radius*radius {
						row = append(row, j)
					}
				}
				if self != 1 {
					t.Errorf("point %d appears %d times in its window", i, self)
				}
				got[i] = row
			}
		})
		for i := range pts {
			want := idx.WithinRadius(pts[i], radius, int32(i), nil)
			if visited[i] != 1 || !slices.Equal(got[i], want) {
				t.Fatalf("workers=%d point %d: visited %d times, row %v, want %v", workers, i, visited[i], got[i], want)
			}
		}
	}
}

func TestCellIndexNearestMatchesBruteForce(t *testing.T) {
	pts := randomPoints(500, 5)
	idx, err := NewCellIndex(pts, UnitSquare(), 0.06)
	if err != nil {
		t.Fatal(err)
	}
	queries := randomPoints(300, 6)
	for _, q := range queries {
		got := idx.Nearest(q)
		best := int32(-1)
		bestD2 := math.Inf(1)
		for j := range pts {
			d2 := pts[j].Dist2(q)
			if d2 < bestD2 {
				best = int32(j)
				bestD2 = d2
			}
		}
		if got != best {
			// Allow exact ties resolved differently only if distances equal.
			if pts[got].Dist2(q) != bestD2 {
				t.Fatalf("Nearest(%v) = %d (d2=%v), want %d (d2=%v)",
					q, got, pts[got].Dist2(q), best, bestD2)
			}
		}
	}
}

func TestCellIndexNearestExcept(t *testing.T) {
	pts := []Point{{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9}}
	idx, err := NewCellIndex(pts, UnitSquare(), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Nearest(Point{0.11, 0.11}); got != 0 {
		t.Fatalf("Nearest = %d, want 0", got)
	}
	if got := idx.NearestExcept(Point{0.11, 0.11}, 0); got != 1 {
		t.Fatalf("NearestExcept = %d, want 1", got)
	}
}

func TestCellIndexEmpty(t *testing.T) {
	idx, err := NewCellIndex(nil, UnitSquare(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Nearest(Point{0.5, 0.5}); got != -1 {
		t.Fatalf("Nearest on empty index = %d, want -1", got)
	}
	if got := idx.WithinRadius(Point{0.5, 0.5}, 0.2, -1, nil); len(got) != 0 {
		t.Fatalf("WithinRadius on empty index = %v", got)
	}
}

func TestCellIndexSinglePoint(t *testing.T) {
	pts := []Point{{0.5, 0.5}}
	idx, err := NewCellIndex(pts, UnitSquare(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Nearest(Point{0.9, 0.9}); got != 0 {
		t.Fatalf("Nearest = %d, want 0", got)
	}
	if got := idx.NearestExcept(Point{0.9, 0.9}, 0); got != -1 {
		t.Fatalf("NearestExcept excluding only point = %d, want -1", got)
	}
}

func TestCellIndexConstructionErrors(t *testing.T) {
	if _, err := NewCellIndex(nil, Rect{}, 0.1); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewCellIndex(nil, UnitSquare(), 0); err == nil {
		t.Fatal("zero cell size accepted")
	}
	if _, err := NewCellIndex(nil, UnitSquare(), -1); err == nil {
		t.Fatal("negative cell size accepted")
	}
}

func TestCellIndexInRect(t *testing.T) {
	pts := randomPoints(600, 7)
	idx, err := NewCellIndex(pts, UnitSquare(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rects := []Rect{
		{0.1, 0.1, 0.4, 0.3},
		{0, 0, 1, 1},
		{0.5, 0.5, 0.500001, 0.500001},
		{0.9, 0.9, 1.0, 1.0},
	}
	for _, rect := range rects {
		got := idx.InRect(rect, nil)
		var want []int32
		for j := range pts {
			if rect.Contains(pts[j]) {
				want = append(want, int32(j))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rect %v: got %d points, want %d", rect, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("rect %v: index %d got %d want %d", rect, k, got[k], want[k])
			}
		}
	}
}

func TestCellIndexWithinRadiusAppendsToDst(t *testing.T) {
	pts := []Point{{0.5, 0.5}, {0.52, 0.5}}
	idx, err := NewCellIndex(pts, UnitSquare(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	dst := []int32{42}
	out := idx.WithinRadius(Point{0.5, 0.5}, 0.05, -1, dst)
	if len(out) != 3 || out[0] != 42 {
		t.Fatalf("WithinRadius did not append: %v", out)
	}
}

func TestCellIndexNegativeRadius(t *testing.T) {
	pts := []Point{{0.5, 0.5}}
	idx, err := NewCellIndex(pts, UnitSquare(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.WithinRadius(Point{0.5, 0.5}, -1, -1, nil); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

func TestQuickNearestIsTrueNearest(t *testing.T) {
	pts := randomPoints(200, 8)
	idx, err := NewCellIndex(pts, UnitSquare(), 0.09)
	if err != nil {
		t.Fatal(err)
	}
	f := func(xRaw, yRaw uint16) bool {
		q := Point{float64(xRaw) / 65536, float64(yRaw) / 65536}
		got := idx.Nearest(q)
		bestD2 := math.Inf(1)
		for j := range pts {
			if d2 := pts[j].Dist2(q); d2 < bestD2 {
				bestD2 = d2
			}
		}
		return pts[got].Dist2(q) == bestD2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
