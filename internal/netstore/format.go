// Package netstore persists fully built networks — points, packed CSR
// adjacency, cell index, cached Voronoi areas and the flattened
// hierarchy tables — as versioned binary snapshots, and caches them in a
// content-addressed on-disk store keyed by the semantic build
// fingerprint. Loading a snapshot is a sequential I/O pass plus
// validation; the O(n·deg) radius scan and the hierarchy recursion are
// skipped entirely, which is where effectively all of the million-node
// build goes (~3 s on two cores; README "Scale", DESIGN.md §11).
//
// A snapshot that decodes successfully is bit-identical to the fresh
// build it was taken from: floats travel as raw IEEE-754 bits, the
// section checksums catch corruption, and the graph/hier FromSnapshot
// constructors revalidate the tables' structure, so sweeps produce
// byte-identical JSONL whether their networks were built or loaded.
// The validators do not re-derive the adjacency: a crafted file with
// valid checksums can carry a different graph over the right points
// (DESIGN.md §11).
package netstore

import (
	"fmt"
	"io"
	"math"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/snap"
)

// FormatVersion is the binary snapshot version. Version 1 is the legacy
// JSON points-only format (serialize.go), which shares the version
// numbering but not the container: binary snapshots are identified by
// snap.Magic, JSON by a leading '{'.
const FormatVersion = 2

// Section tags, in the order Encode writes them. VORO is omitted when
// the Voronoi areas were never computed.
const (
	tagMeta    = "META"
	tagPoints  = "PNTS"
	tagAdj     = "GADJ"
	tagIndex   = "GIDX"
	tagVoronoi = "VORO"
	tagHier    = "HIER"
)

// Meta records the build parameters a snapshot was produced under.
// Radius is the resolved connection radius; LeafTarget and MaxDepth are
// the *configured* hierarchy values (zero selects the documented
// defaults), so a loaded network reports the same configuration its
// builder was given.
type Meta struct {
	N          int
	Radius     float64
	LeafTarget float64
	MaxDepth   int
}

// Encode writes the network as a binary snapshot. The graph and
// hierarchy must be over the same point set (hier.Build(g.Points(), …)).
// The snapshot streams to w through a fixed chunk, so Encode's own memory
// is that chunk plus the hierarchy's flattened tables. Every section's
// fill reads only these immutable tables, so its sizing and streaming
// runs (snap.Writer.Section) write the same bytes.
func Encode(w io.Writer, meta Meta, g *graph.Graph, h *hier.Hierarchy) error {
	gs := g.Snapshot()
	hs := h.Snapshot()
	sw := snap.NewWriter(w, FormatVersion)
	sw.Section(tagMeta, func(e *snap.Enc) {
		e.U64(uint64(meta.N))
		e.F64(meta.Radius)
		e.F64(meta.LeafTarget)
		e.I64(int64(meta.MaxDepth))
	})
	sw.Section(tagPoints, func(e *snap.Enc) { e.Points(g.Points()) })
	sw.Section(tagAdj, func(e *snap.Enc) {
		e.I32s(gs.Offsets)
		e.I32s(gs.Flat)
	})
	sw.Section(tagIndex, func(e *snap.Enc) {
		e.F64(gs.Index.CellSize)
		e.U64(uint64(gs.Index.Cols))
		e.U64(uint64(gs.Index.Rows))
		e.I32s(gs.Index.CellStart)
		e.I32s(gs.Index.CellIDs)
	})
	if gs.Voronoi != nil {
		sw.Section(tagVoronoi, func(e *snap.Enc) { e.F64s(gs.Voronoi) })
	}
	sw.Section(tagHier, func(e *snap.Enc) {
		e.I32s(hs.Branching)
		e.I32s(hs.Reps)
		e.I32s(hs.MemberCounts)
		e.I32s(hs.MemberBlock)
		e.I32s(hs.NodeLeaf)
		e.I32s(hs.NodeLevel)
		e.I32s(hs.RoleCounts)
		e.I32s(hs.RoleBlock)
	})
	return sw.Close()
}

// Decode reads a binary snapshot and reconstructs the network,
// validating every table (see graph.FromSnapshot, hier.FromSnapshot).
// workers seeds the loaded graph's derived-computation pool exactly like
// the build-time parameter; it never affects the loaded tables. Decode
// never trusts declared sizes: tables are allocated against the bytes r
// holds (an *os.File or a reader with Len) or has delivered (any other
// reader), so hostile inputs fail with an error, not an OOM. Tables are
// decoded as they stream in, and every section's checksum passes before
// any table reaches the validators or the caller.
func Decode(r io.Reader, workers int) (*graph.Graph, *hier.Hierarchy, Meta, error) {
	sr, err := snap.NewReader(r)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	if v := sr.Version(); v != FormatVersion {
		return nil, nil, Meta{}, fmt.Errorf("netstore: snapshot version %d, this build reads %d", v, FormatVersion)
	}

	// The writer emits a fixed section order; the decoder demands it.
	// Anything else — reordered, duplicated, unknown or missing sections —
	// is corruption (or a future format this build cannot read).
	next := func(want ...string) (string, *snap.Dec, error) {
		tag, d, err := sr.Next()
		if err != nil {
			return "", nil, err
		}
		for _, w := range want {
			if tag == w {
				return tag, d, nil
			}
		}
		return "", nil, fmt.Errorf("netstore: unexpected section %q (want %v)", tag, want)
	}

	var meta Meta
	_, d, err := next(tagMeta)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	n, err := d.U64()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	if n > math.MaxInt32 {
		return nil, nil, Meta{}, fmt.Errorf("netstore: snapshot claims %d nodes, over the int32 id space", n)
	}
	meta.N = int(n)
	if meta.Radius, err = d.F64(); err != nil {
		return nil, nil, Meta{}, err
	}
	if meta.LeafTarget, err = d.F64(); err != nil {
		return nil, nil, Meta{}, err
	}
	md, err := d.I64()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	if md < 0 || md > 64 {
		return nil, nil, Meta{}, fmt.Errorf("netstore: snapshot max depth %d out of range", md)
	}
	meta.MaxDepth = int(md)
	if err := d.Done(); err != nil {
		return nil, nil, Meta{}, err
	}

	_, d, err = next(tagPoints)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	points, err := d.Points()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	if len(points) != meta.N {
		return nil, nil, Meta{}, fmt.Errorf("netstore: snapshot holds %d points, meta claims %d", len(points), meta.N)
	}
	if err := d.Done(); err != nil {
		return nil, nil, Meta{}, err
	}

	gs := graph.Snapshot{Radius: meta.Radius}
	_, d, err = next(tagAdj)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	if gs.Offsets, err = d.I32s(); err != nil {
		return nil, nil, Meta{}, err
	}
	if gs.Flat, err = d.I32s(); err != nil {
		return nil, nil, Meta{}, err
	}
	if err := d.Done(); err != nil {
		return nil, nil, Meta{}, err
	}

	_, d, err = next(tagIndex)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	var cols, rows uint64
	if gs.Index.CellSize, err = d.F64(); err != nil {
		return nil, nil, Meta{}, err
	}
	if cols, err = d.U64(); err != nil {
		return nil, nil, Meta{}, err
	}
	if rows, err = d.U64(); err != nil {
		return nil, nil, Meta{}, err
	}
	if cols > math.MaxInt32 || rows > math.MaxInt32 {
		return nil, nil, Meta{}, fmt.Errorf("netstore: snapshot grid %dx%d out of range", cols, rows)
	}
	gs.Index.Cols, gs.Index.Rows = int(cols), int(rows)
	if gs.Index.CellStart, err = d.I32s(); err != nil {
		return nil, nil, Meta{}, err
	}
	if gs.Index.CellIDs, err = d.I32s(); err != nil {
		return nil, nil, Meta{}, err
	}
	if err := d.Done(); err != nil {
		return nil, nil, Meta{}, err
	}

	tag, d, err := next(tagVoronoi, tagHier)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	if tag == tagVoronoi {
		if gs.Voronoi, err = d.F64s(); err != nil {
			return nil, nil, Meta{}, err
		}
		if err := d.Done(); err != nil {
			return nil, nil, Meta{}, err
		}
		if _, d, err = next(tagHier); err != nil {
			return nil, nil, Meta{}, err
		}
	}
	var hs hier.Snapshot
	for _, dst := range []*[]int32{
		&hs.Branching, &hs.Reps, &hs.MemberCounts, &hs.MemberBlock,
		&hs.NodeLeaf, &hs.NodeLevel, &hs.RoleCounts, &hs.RoleBlock,
	} {
		if *dst, err = d.I32s(); err != nil {
			return nil, nil, Meta{}, err
		}
	}
	if err := d.Done(); err != nil {
		return nil, nil, Meta{}, err
	}
	if _, _, err := next(snap.EndTag); err != nil {
		return nil, nil, Meta{}, err
	}

	g, err := graph.FromSnapshot(points, gs, workers)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	h, err := hier.FromSnapshot(points, hs)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	return g, h, meta, nil
}
