// Package graph builds and queries geometric random graphs G(n, r): n
// points placed independently and uniformly at random on the unit square,
// with an edge between every pair at Euclidean distance at most r.
//
// This is the connectivity substrate of the paper (§2): with
// r = Θ(sqrt(log n / n)) the graph is connected with high probability
// (Gupta–Kumar), nearest-neighbour gossip mixes in Õ(n) ticks, and greedy
// geographic routing between far-apart nodes takes O(sqrt(n / log n))
// hops.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"geogossip/internal/geo"
	"geogossip/internal/par"
	"geogossip/internal/rng"
)

// ConnectivityRadius returns r = c·sqrt(log n / n), the standard scaling
// for the radius of connectivity (natural logarithm). c = 1 is the
// Gupta–Kumar threshold; the simulations in this repository default to
// c ≥ 1.5 so instances are connected with overwhelming probability.
// For n < 2 it returns 1 (a single node or empty graph is trivially
// "connected" at any radius).
func ConnectivityRadius(n int, c float64) float64 {
	if n < 2 {
		return 1
	}
	r := c * math.Sqrt(math.Log(float64(n))/float64(n))
	if r > math.Sqrt2 {
		return math.Sqrt2 // diagonal of the unit square; larger is pointless
	}
	return r
}

// Graph is an immutable geometric graph: points plus the adjacency lists
// induced by the connection radius. Safe for concurrent reads.
type Graph struct {
	points []geo.Point
	radius float64
	bounds geo.Rect
	index  *geo.CellIndex
	// adj is a packed adjacency structure: neighbours of i are
	// flat[offsets[i]:offsets[i+1]], sorted ascending.
	flat    []int32
	offsets []int32
	edges   int

	// workers is the construction worker count the graph was built with;
	// derived computations (VoronoiAreas) reuse it.
	workers int

	// voronoi caches VoronoiAreas: the areas are a pure function of the
	// immutable point set, and every geographic-gossip run on the graph
	// needs them, so they are computed once and shared. voronoiReady
	// publishes the cache to Snapshot, which must not block on (or
	// trigger) the computation.
	voronoiOnce  sync.Once
	voronoi      []float64
	voronoiReady atomic.Bool
}

// UniformPoints draws n points independently and uniformly from the unit
// square.
func UniformPoints(n int, r *rng.RNG) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: r.Float64(), Y: r.Float64()}
	}
	return pts
}

// Generate builds G(n, r) with r = c·sqrt(log n / n) from fresh uniform
// points drawn from r's "points" substream.
func Generate(n int, c float64, r *rng.RNG) (*Graph, error) {
	return GenerateWorkers(n, c, r, 1)
}

// GenerateWorkers is Generate with a construction worker-pool size. The
// points are always drawn serially (the draw sequence is part of the seed
// contract); only the adjacency construction is sharded. Output is
// byte-identical at every worker count.
func GenerateWorkers(n int, c float64, r *rng.RNG, workers int) (*Graph, error) {
	pts := UniformPoints(n, r.Stream("points"))
	return BuildWorkers(pts, ConnectivityRadius(n, c), workers)
}

// Build constructs the geometric graph over the given points with the
// given connection radius. All points must lie in the unit square.
func Build(points []geo.Point, radius float64) (*Graph, error) {
	return BuildWorkers(points, radius, 1)
}

// BuildWorkers is Build with a construction worker-pool size (<= 0 selects
// GOMAXPROCS). The build walks the cell index's windows (geo.CellIndex.
// Windows) in two passes — count, prefix-sum, fill — so the packed
// flat/offsets arrays are byte-identical to the serial build at every
// worker count: each node's neighbour row is a pure function of its
// cell's window, written into its exact pre-sized CSR slot. A window is
// sorted by id, so filtering it in order yields a sorted row with no
// per-node sort.
func BuildWorkers(points []geo.Point, radius float64, workers int) (*Graph, error) {
	if radius <= 0 || math.IsInf(radius, 0) || math.IsNaN(radius) {
		return nil, fmt.Errorf("graph: radius %v must be positive and finite", radius)
	}
	// Cell size = radius keeps radius queries to a 3×3 cell scan; radii
	// over 0.5 still get a 2×2 grid. The grid then has ⌈1/r⌉² cells
	// whatever n is. A connected network keeps that within a small
	// multiple of n, so a grid past max(64n, 2^20) cells means a radius
	// far below connectivity, whose index alone could exhaust memory.
	cell := min(radius, 0.5)
	if side, limit := math.Ceil(1/cell), max(64*len(points), 1<<20); side*side > float64(limit) {
		return nil, fmt.Errorf("graph: radius %v is too small for %d points (%.3g index cells, limit %d)", radius, len(points), side*side, limit)
	}
	workers = par.Resolve(workers)
	bounds := geo.UnitSquare()
	for i, p := range points {
		if !bounds.Contains(p) {
			return nil, fmt.Errorf("graph: point %d = %v outside the unit square", i, p)
		}
	}
	idx, err := geo.NewCellIndex(points, bounds, cell)
	if err != nil {
		return nil, fmt.Errorf("graph: build index: %w", err)
	}
	g := &Graph{
		points:  points,
		radius:  radius,
		bounds:  bounds,
		index:   idx,
		workers: workers,
		offsets: make([]int32, len(points)+1),
	}
	n := len(points)
	r2 := radius * radius
	// Pass 1 (parallel): exact neighbour count per node. A node sits in
	// its own window once at d² = 0, so the count starts at -1.
	idx.Windows(radius, workers, func(members, _ []int32, pts []geo.Point) {
		for _, i := range members {
			p, c := points[i], -1
			for _, q := range pts {
				c += within(p, q, r2)
			}
			g.offsets[i+1] = int32(c)
		}
	})
	// Prefix-sum stitch (serial): offsets[i+1] becomes the end of node i's
	// segment.
	for i := 0; i < n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	// Pass 2 (parallel): fill each node's pre-sized segment in place from
	// the window candidates before and after the node itself.
	g.flat = make([]int32, g.offsets[n])
	idx.Windows(radius, workers, func(members, ids []int32, pts []geo.Point) {
		s := 0
		for _, i := range members {
			for ids[s] != i { // members and window share ascending order
				s++
			}
			seg := g.flat[g.offsets[i]:g.offsets[i+1]]
			m := fillRow(seg, 0, ids[:s], pts[:s], pts[s], r2)
			m = fillRow(seg, m, ids[s+1:], pts[s+1:], pts[s], r2)
			if m != len(seg) {
				panic(fmt.Sprintf("graph: node %d neighbour count changed between passes (%d != %d)",
					i, m, len(seg)))
			}
		}
	})
	g.edges = len(g.flat) / 2
	return g, nil
}

// within is 1 when q lies within the radius of p (d² ≤ r²) and 0
// otherwise, without a branch: for finite values r² − d² is zero only
// when d² == r², so its sign bit is clear exactly when d² ≤ r².
func within(p, q geo.Point, r2 float64) int {
	return int(^math.Float64bits(r2-q.Dist2(p)) >> 63)
}

// fillRow writes the ids whose points lie within the radius of p into
// seg from index m on, in order, and returns m plus the number found.
// Every candidate is written at seg[m] and m advances by within's 0 or 1,
// so the loop has no data-dependent branch. Writing stops once seg is
// full, so nothing lands past it; the rest is only counted, which lets
// the caller see a count that outgrew seg.
func fillRow(seg []int32, m int, ids []int32, pts []geo.Point, p geo.Point, r2 float64) int {
	pts = pts[:len(ids)]
	k := 0
	for ; k < len(ids) && m < len(seg); k++ {
		seg[m] = ids[k]
		m += within(p, pts[k], r2)
	}
	for ; k < len(ids); k++ {
		m += within(p, pts[k], r2)
	}
	return m
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.points) }

// Edges returns the number of undirected edges.
func (g *Graph) Edges() int { return g.edges }

// Radius returns the connection radius.
func (g *Graph) Radius() float64 { return g.radius }

// Point returns node i's position.
func (g *Graph) Point(i int32) geo.Point { return g.points[i] }

// Points returns the backing point slice. Callers must treat it as
// read-only.
func (g *Graph) Points() []geo.Point { return g.points }

// Neighbors returns node i's neighbour list, sorted ascending. The slice
// aliases internal storage and must be treated as read-only.
func (g *Graph) Neighbors(i int32) []int32 {
	return g.flat[g.offsets[i]:g.offsets[i+1]]
}

// Degree returns the number of neighbours of node i.
func (g *Graph) Degree(i int32) int {
	return int(g.offsets[i+1] - g.offsets[i])
}

// ByDegreeDesc returns all node ids ordered by descending degree, ties
// broken by ascending id — the deterministic ordering hub-targeted fault
// models (adversarial churn against the best-connected nodes) key on.
func (g *Graph) ByDegreeDesc() []int32 {
	out := make([]int32, g.N())
	for i := range out {
		out[i] = int32(i)
	}
	sort.SliceStable(out, func(a, b int) bool {
		da, db := g.Degree(out[a]), g.Degree(out[b])
		if da != db {
			return da > db
		}
		return out[a] < out[b]
	})
	return out
}

// HasEdge reports whether nodes i and j are adjacent.
func (g *Graph) HasEdge(i, j int32) bool {
	nbrs := g.Neighbors(i)
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbrs[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nbrs) && nbrs[lo] == j
}

// NearestTo returns the node nearest to position p, or -1 for an empty
// graph. This is the "node closest to a random location" primitive that
// geographic gossip's target sampling relies on.
func (g *Graph) NearestTo(p geo.Point) int32 { return g.index.Nearest(p) }

// NodesInRect returns the nodes inside rect, sorted ascending.
func (g *Graph) NodesInRect(rect geo.Rect) []int32 {
	return g.index.InRect(rect, nil)
}

// ErrDisconnected is returned by operations that require a connected graph.
var ErrDisconnected = errors.New("graph: not connected")

// IsConnected reports whether the graph is connected (true for n <= 1).
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	queue = append(queue, 0)
	visited[0] = true
	seen := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if !visited[v] {
				visited[v] = true
				seen++
				queue = append(queue, v)
			}
		}
	}
	return seen == n
}

// Components labels each node with a component id in [0, k) and returns
// the labels plus the number of components k. Ids are assigned in order
// of the smallest node index per component.
func (g *Graph) Components() (labels []int32, k int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := int32(0); int(s) < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(k)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if labels[v] < 0 {
					labels[v] = int32(k)
					queue = append(queue, v)
				}
			}
		}
		k++
	}
	return labels, k
}

// BFSDistances returns hop distances from src to every node (-1 where
// unreachable).
func (g *Graph) BFSDistances(src int32) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSPath returns a shortest hop path from src to dst (inclusive of both
// endpoints), or nil if unreachable. Among shortest paths it prefers
// smaller node indices, so output is deterministic.
func (g *Graph) BFSPath(src, dst int32) []int32 {
	if src == dst {
		return []int32{src}
	}
	n := g.N()
	prev := make([]int32, n)
	for i := range prev {
		prev[i] = -2
	}
	prev[src] = -1
	queue := make([]int32, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if prev[v] == -2 {
				prev[v] = u
				if v == dst {
					return buildPath(prev, dst)
				}
				queue = append(queue, v)
			}
		}
	}
	return nil
}

func buildPath(prev []int32, dst int32) []int32 {
	var rev []int32
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// VoronoiAreas returns, for every node, the area of its Voronoi cell
// within the unit square, computed locally: the square clipped by the
// perpendicular bisector against each graph neighbour. The estimate is
// exact whenever all of a node's Voronoi neighbours lie within the
// connection radius, which holds w.h.p. at the connectivity radius; for
// sparser nodes it overestimates (the true cell is a subset).
//
// This is the quantity geographic gossip's rejection sampling needs: the
// probability that a node is nearest to a uniformly random position is
// exactly its Voronoi area.
//
// The areas are a pure function of the immutable point set, so they are
// computed once (the polygon clipping dominated per-run setup cost before
// caching) and the same slice is returned to every caller. Treat it as
// read-only.
func (g *Graph) VoronoiAreas() []float64 {
	g.voronoiOnce.Do(func() {
		areas := make([]float64, g.N())
		// Each node's area is a pure function of its own point and
		// neighbour list, so the node range shards freely: every worker
		// block owns a disjoint slice of areas and its own pair of
		// ping-pong clip buffers (each bisector clip writes into the
		// buffer the previous one didn't — O(1) allocations per block
		// instead of one polygon per clip). Output is byte-identical at
		// every worker count.
		unit := geo.UnitSquarePolygon()
		par.Blocks(g.workers, g.N(), func(lo, hi int) {
			bufA := make(geo.Polygon, 0, 16)
			bufB := make(geo.Polygon, 0, 16)
			for i := int32(lo); int(i) < hi; i++ {
				cell := unit
				pi := g.points[i]
				writeA := true // which buffer the next clip writes into
				for _, j := range g.Neighbors(i) {
					dst := bufB
					if writeA {
						dst = bufA
					}
					// dst never aliases cell: cell lives in the other buffer
					// (or in unit before the first real clip).
					next := cell.ClipBisectorInto(pi, g.points[j], dst[:0])
					if len(next) == 0 {
						cell = nil
						break
					}
					if &next[0] == &cell[0] {
						continue // identical-points passthrough: nothing written
					}
					// Keep the (possibly append-grown) buffer for reuse.
					if writeA {
						bufA = next
					} else {
						bufB = next
					}
					cell = next
					writeA = !writeA
				}
				areas[i] = cell.Area()
			}
		})
		g.voronoi = areas
		g.voronoiReady.Store(true)
	})
	return g.voronoi
}

// Footprint itemizes the heap bytes the graph holds per major table. The
// voronoi entry is nonzero only once VoronoiAreas has been demanded.
type Footprint struct {
	PointsBytes  int
	AdjBytes     int // flat + offsets CSR arrays
	IndexBytes   int // cell-index CSR arrays
	VoronoiBytes int
}

// Total returns the summed footprint in bytes.
func (f Footprint) Total() int {
	return f.PointsBytes + f.AdjBytes + f.IndexBytes + f.VoronoiBytes
}

// Footprint reports the graph's table sizes, the input to the
// bytes-per-node scaling report in cmd/sweep.
func (g *Graph) Footprint() Footprint {
	return Footprint{
		PointsBytes:  16 * len(g.points),
		AdjBytes:     4*len(g.flat) + 4*len(g.offsets),
		IndexBytes:   g.index.FootprintBytes(),
		VoronoiBytes: 8 * len(g.voronoi),
	}
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max  int
	Mean      float64
	Isolated  int // nodes with degree 0
	TotalEdge int // undirected edge count
}

// Degrees computes degree statistics for the graph.
func (g *Graph) Degrees() DegreeStats {
	n := g.N()
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: int(^uint(0) >> 1)}
	sum := 0
	for i := int32(0); int(i) < n; i++ {
		d := g.Degree(i)
		sum += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	st.Mean = float64(sum) / float64(n)
	st.TotalEdge = sum / 2
	return st
}
