package geo

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"geogossip/internal/par"
)

// CellIndex is a uniform-grid spatial index over a fixed set of points.
// It supports radius-bounded neighbour queries (the geometric random graph
// construction), nearest-point queries (greedy routing targets, square
// representatives) and rectangle queries (square membership).
//
// Cell membership is stored in CSR form — one flat id array plus per-cell
// offsets — rather than a slice-of-slices, so a million-point index costs
// two arrays instead of one allocation per occupied cell.
//
// The index is immutable after construction and safe for concurrent reads.
type CellIndex struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	points   []Point
	// cellIDs[cellStart[c]:cellStart[c+1]] lists the indices of the points
	// in cell c, sorted ascending.
	cellStart []int32
	cellIDs   []int32
}

// NewCellIndex builds an index over points within bounds using square
// cells of side cellSize. Radius queries require radius <= cellSize.
// Points outside bounds are clamped into the boundary cells.
func NewCellIndex(points []Point, bounds Rect, cellSize float64) (*CellIndex, error) {
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("geo: cell index bounds %v are empty", bounds)
	}
	if cellSize <= 0 {
		return nil, fmt.Errorf("geo: cell size %v must be positive", cellSize)
	}
	cols := int(math.Ceil(bounds.Width() / cellSize))
	rows := int(math.Ceil(bounds.Height() / cellSize))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	idx := &CellIndex{
		bounds:   bounds,
		cellSize: cellSize,
		cols:     cols,
		rows:     rows,
		points:   points,
	}
	// Two passes: count occupancy, prefix-sum into offsets, then fill.
	// Filling in ascending point order keeps every cell's id list sorted
	// without a per-cell sort.
	nc := cols * rows
	idx.cellStart = make([]int32, nc+1)
	for _, p := range points {
		idx.cellStart[idx.cellOf(p)+1]++
	}
	for c := 0; c < nc; c++ {
		idx.cellStart[c+1] += idx.cellStart[c]
	}
	idx.cellIDs = make([]int32, len(points))
	fill := make([]int32, nc)
	copy(fill, idx.cellStart[:nc])
	for i, p := range points {
		c := idx.cellOf(p)
		idx.cellIDs[fill[c]] = int32(i)
		fill[c]++
	}
	return idx, nil
}

// NumPoints returns the number of indexed points.
func (ci *CellIndex) NumPoints() int { return len(ci.points) }

// FootprintBytes reports the heap bytes held by the index's own tables
// (offsets + id array), excluding the caller-owned point slice.
func (ci *CellIndex) FootprintBytes() int {
	return 4*len(ci.cellStart) + 4*len(ci.cellIDs)
}

func (ci *CellIndex) cellOf(p Point) int {
	col := int((p.X - ci.bounds.MinX) / ci.cellSize)
	row := int((p.Y - ci.bounds.MinY) / ci.cellSize)
	col = clamp(col, 0, ci.cols-1)
	row = clamp(row, 0, ci.rows-1)
	return row*ci.cols + col
}

// cell returns the sorted point ids in cell c.
func (ci *CellIndex) cell(c int) []int32 {
	return ci.cellIDs[ci.cellStart[c]:ci.cellStart[c+1]]
}

// WithinRadius appends to dst the indices of all points within distance
// radius of p (including any point exactly at p) and returns the extended
// slice. If exclude >= 0 that index is omitted. Results are sorted
// ascending. A radius larger than the cell size widens the scan to every
// cell within reach.
func (ci *CellIndex) WithinRadius(p Point, radius float64, exclude int32, dst []int32) []int32 {
	if radius < 0 {
		return dst
	}
	r2 := radius * radius
	reach := ci.reach(radius)
	col := clamp(int((p.X-ci.bounds.MinX)/ci.cellSize), 0, ci.cols-1)
	row := clamp(int((p.Y-ci.bounds.MinY)/ci.cellSize), 0, ci.rows-1)
	start := len(dst)
	for dr := -reach; dr <= reach; dr++ {
		rr := row + dr
		if rr < 0 || rr >= ci.rows {
			continue
		}
		for dc := -reach; dc <= reach; dc++ {
			cc := col + dc
			if cc < 0 || cc >= ci.cols {
				continue
			}
			for _, j := range ci.cell(rr*ci.cols + cc) {
				if j == exclude {
					continue
				}
				if ci.points[j].Dist2(p) <= r2 {
					dst = append(dst, j)
				}
			}
		}
	}
	sortInt32(dst[start:])
	return dst
}

// reach returns how many cells a radius query must scan on each side of
// the query's own cell: ceil(radius / cellSize), capped at the grid so a
// huge radius cannot overflow the int conversion.
func (ci *CellIndex) reach(radius float64) int {
	reach := ci.cols + ci.rows
	if f := math.Ceil(radius / ci.cellSize); f < float64(reach) {
		reach = int(f)
	}
	return reach
}

// Windows calls visit once for every nonempty cell, on up to workers
// goroutines (<= 0 selects GOMAXPROCS), with the cell's members and the
// candidate window they share for a query of the given positive radius:
// ids holds every point of the cells within reach (the scan WithinRadius
// makes from any member), sorted ascending, and pts[k] is the point of
// ids[k]. Each member is in its own window exactly once.
//
// A window is sorted once for all of its cell's members, so a member
// that keeps the window points within the radius, in window order, gets
// its neighbours sorted without a per-query sort, and reads candidate
// points contiguously instead of through the id array. Each worker owns
// one window buffer set for the whole walk; ids and pts are valid only
// until visit returns. Cells are handed out dynamically, so visit must
// only write state owned by the cell's members.
func (ci *CellIndex) Windows(radius float64, workers int, visit func(members, ids []int32, pts []Point)) {
	reach := ci.reach(radius)
	nc := ci.cols * ci.rows
	workers = par.Resolve(workers)
	// Cells go out in runs of 1/16 of a worker's share, so a sparse grid
	// (far more cells than points) costs a few dozen atomic adds rather
	// than one per cell.
	run := max(nc/(16*workers), 1)
	var next atomic.Int64
	// One unit per worker: each unit takes runs off the shared counter
	// until none are left, so a goroutine that finishes its unit finds
	// any later unit empty and allocates nothing for it.
	par.Do(workers, workers, func(int) {
		var ids []int32
		var pts []Point
		for {
			lo := int(next.Add(int64(run))) - run
			if lo >= nc {
				return
			}
			for c := lo; c < min(lo+run, nc); c++ {
				if members := ci.cell(c); len(members) > 0 {
					ids, pts = ci.window(c, reach, ids[:0], pts[:0])
					visit(members, ids, pts)
				}
			}
		}
	})
}

// window appends to ids the ids of every point in the cells within reach
// of cell c, sorted ascending, and to pts their points in the same order.
func (ci *CellIndex) window(c, reach int, ids []int32, pts []Point) ([]int32, []Point) {
	row, col := c/ci.cols, c%ci.cols
	c0, c1 := max(col-reach, 0), min(col+reach, ci.cols-1)
	for rr := max(row-reach, 0); rr <= min(row+reach, ci.rows-1); rr++ {
		// Row-major CSR: the cells c0..c1 of one row are one contiguous
		// run of the id array.
		ids = append(ids, ci.cellIDs[ci.cellStart[rr*ci.cols+c0]:ci.cellStart[rr*ci.cols+c1+1]]...)
	}
	sortInt32(ids)
	for _, j := range ids {
		pts = append(pts, ci.points[j])
	}
	return ids, pts
}

// Nearest returns the index of the point nearest to p, or -1 if the index
// is empty. Ties are broken toward the smaller index for determinism.
func (ci *CellIndex) Nearest(p Point) int32 {
	return ci.NearestExcept(p, -1)
}

// NearestExcept returns the index of the point nearest to p excluding the
// given index, or -1 if no such point exists.
func (ci *CellIndex) NearestExcept(p Point, exclude int32) int32 {
	if len(ci.points) == 0 || (len(ci.points) == 1 && exclude == 0) {
		return -1
	}
	col := clamp(int((p.X-ci.bounds.MinX)/ci.cellSize), 0, ci.cols-1)
	row := clamp(int((p.Y-ci.bounds.MinY)/ci.cellSize), 0, ci.rows-1)
	best := int32(-1)
	bestD2 := math.Inf(1)
	maxRing := ci.cols
	if ci.rows > maxRing {
		maxRing = ci.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is found, scanning one extra ring suffices:
		// any point in a farther ring is at distance >= (ring-1)*cellSize.
		if best >= 0 {
			minPossible := float64(ring-1) * ci.cellSize
			if minPossible > 0 && minPossible*minPossible > bestD2 {
				break
			}
		}
		found := ci.scanRing(p, row, col, ring, exclude, &best, &bestD2)
		if !found && ring > 0 && best >= 0 {
			continue
		}
	}
	return best
}

// scanRing examines the square ring of cells at Chebyshev distance ring
// from (row, col), updating best/bestD2. It reports whether any cell of
// the ring was in range.
func (ci *CellIndex) scanRing(p Point, row, col, ring int, exclude int32, best *int32, bestD2 *float64) bool {
	any := false
	visit := func(rr, cc int) {
		if rr < 0 || rr >= ci.rows || cc < 0 || cc >= ci.cols {
			return
		}
		any = true
		for _, j := range ci.cell(rr*ci.cols + cc) {
			if j == exclude {
				continue
			}
			d2 := ci.points[j].Dist2(p)
			if d2 < *bestD2 || (d2 == *bestD2 && (*best < 0 || j < *best)) {
				*best = j
				*bestD2 = d2
			}
		}
	}
	if ring == 0 {
		visit(row, col)
		return any
	}
	for cc := col - ring; cc <= col+ring; cc++ {
		visit(row-ring, cc)
		visit(row+ring, cc)
	}
	for rr := row - ring + 1; rr <= row+ring-1; rr++ {
		visit(rr, col-ring)
		visit(rr, col+ring)
	}
	return any
}

// InRect appends to dst the indices of all points inside rect (half-open)
// and returns the extended slice, sorted ascending.
func (ci *CellIndex) InRect(rect Rect, dst []int32) []int32 {
	start := len(dst)
	lo := ci.cellOf(Point{rect.MinX, rect.MinY})
	hi := ci.cellOf(Point{math.Nextafter(rect.MaxX, rect.MinX), math.Nextafter(rect.MaxY, rect.MinY)})
	loRow, loCol := lo/ci.cols, lo%ci.cols
	hiRow, hiCol := hi/ci.cols, hi%ci.cols
	for rr := loRow; rr <= hiRow; rr++ {
		for cc := loCol; cc <= hiCol; cc++ {
			for _, j := range ci.cell(rr*ci.cols + cc) {
				if rect.Contains(ci.points[j]) {
					dst = append(dst, j)
				}
			}
		}
	}
	sortInt32(dst[start:])
	return dst
}

func sortInt32(s []int32) {
	slices.Sort(s)
}
