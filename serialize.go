package geogossip

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"geogossip/internal/geo"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/netstore"
	"geogossip/internal/snap"
)

// networkJSON is the legacy (version 1) on-disk representation of a
// Network: positions plus the parameters needed to rebuild the
// connectivity graph and hierarchy exactly. Save no longer produces it,
// but LoadNetwork reads it forever.
type networkJSON struct {
	Version    int          `json:"version"`
	Radius     float64      `json:"radius"`
	LeafTarget float64      `json:"leafTarget,omitempty"`
	MaxDepth   int          `json:"maxDepth,omitempty"`
	Points     [][2]float64 `json:"points"`
}

const networkFormatVersion = 1

// Save writes the network to w as a binary snapshot: positions plus the
// derived adjacency, cell index and hierarchy tables, each section
// checksummed (DESIGN.md §11). Files are larger than the legacy JSON
// points-only encoding, but loading is a sequential validation pass that
// skips network construction entirely — the point at million-node scale,
// where rebuilding dominates. The snapshot streams to w through a fixed
// 64 KiB chunk, so saving holds no copy of the network. LoadNetwork reads
// both formats.
func (nw *Network) Save(w io.Writer) error {
	meta := netstore.Meta{
		N:          nw.g.N(),
		Radius:     nw.g.Radius(),
		LeafTarget: nw.leafTarget,
		MaxDepth:   nw.maxDepth,
	}
	if err := netstore.Encode(w, meta, nw.g, nw.h); err != nil {
		return fmt.Errorf("geogossip: encode network: %w", err)
	}
	return nil
}

// LoadNetwork reads a network previously written by Save. The format is
// sniffed from the first bytes: one gzip layer is unwrapped
// transparently, the binary snapshot magic selects the snapshot decoder
// (every table validated, bit-identical to the build it was saved from),
// and a leading '{' selects the legacy JSON decoder, which rebuilds the
// graph and hierarchy from the stored positions. A gzip stream inside
// the gzip layer is an error: each layer costs a buffer and a
// decompressor, so unbounded nesting would let a small file exhaust
// memory.
func LoadNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(2)
	if err != nil {
		return nil, fmt.Errorf("geogossip: decode network: %w", err)
	}
	if isGzip(head) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("geogossip: decode network: %w", err)
		}
		defer gz.Close()
		br = bufio.NewReaderSize(gz, 1<<16)
		if head, err = br.Peek(2); err != nil {
			return nil, fmt.Errorf("geogossip: decode network: %w", err)
		}
		if isGzip(head) {
			return nil, errors.New("geogossip: decode network: gzip nested inside gzip; only one layer is accepted")
		}
	}
	if head[0] == snap.Magic[0] {
		g, h, meta, err := netstore.Decode(br, 0)
		if err != nil {
			return nil, fmt.Errorf("geogossip: decode network: %w", err)
		}
		return &Network{g: g, h: h, leafTarget: meta.LeafTarget, maxDepth: meta.MaxDepth}, nil
	}
	return loadNetworkJSON(br)
}

func isGzip(head []byte) bool { return head[0] == 0x1f && head[1] == 0x8b }

func loadNetworkJSON(r io.Reader) (*Network, error) {
	var in networkJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("geogossip: decode network: %w", err)
	}
	if in.Version != networkFormatVersion {
		return nil, fmt.Errorf("geogossip: unsupported network format version %d", in.Version)
	}
	pts := make([]geo.Point, len(in.Points))
	for i, p := range in.Points {
		pts[i] = geo.Pt(p[0], p[1])
	}
	g, err := graph.Build(pts, in.Radius)
	if err != nil {
		return nil, fmt.Errorf("geogossip: rebuild graph: %w", err)
	}
	h, err := hier.Build(pts, hier.Config{LeafTarget: in.LeafTarget, MaxDepth: in.MaxDepth})
	if err != nil {
		return nil, fmt.Errorf("geogossip: rebuild hierarchy: %w", err)
	}
	return &Network{g: g, h: h, leafTarget: in.LeafTarget, maxDepth: in.MaxDepth}, nil
}
