package netstore

import (
	"bytes"
	"testing"
	"testing/iotest"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
)

// fuzzSeed encodes a tiny but fully populated snapshot (adjacency,
// index, voronoi, multi-level hierarchy) for the fuzzer to mutate.
func fuzzSeed(f *testing.F, n int, seed uint64, c float64, leafTarget float64) []byte {
	f.Helper()
	g, err := graph.Generate(n, c, rng.New(seed))
	if err != nil {
		f.Fatal(err)
	}
	h, err := hier.Build(g.Points(), hier.Config{LeafTarget: leafTarget})
	if err != nil {
		f.Fatal(err)
	}
	g.VoronoiAreas()
	var buf bytes.Buffer
	if err := Encode(&buf, Meta{N: n, Radius: g.Radius(), LeafTarget: leafTarget}, g, h); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecode asserts the decoder never panics and never lets a hostile
// length prefix or array count drive allocations: every count is checked
// against its section's remaining declared bytes before anything is
// allocated, so allocation is bounded by the bytes the stream holds or
// has delivered. Each input is decoded through a reader that reports its
// size, where a section longer than the stream fails before it is read,
// and through one that does not, where tables grow only as bytes arrive;
// both must fail, or both must return the same network bit for bit.
// Tables fill straight from the stream in steps of at most the input
// buffer's size, so values are decoded before their section's checksum
// is read; no value reaches Decode's caller before its section's
// checksum passes, so a network that decodes is fully verified.
func FuzzDecode(f *testing.F) {
	valid := fuzzSeed(f, 40, 1, 2.0, 8)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:13])
	f.Add([]byte("{\"version\":1,\"radius\":0.1}"))
	f.Add([]byte("\x89GGS\r\n\x1a\n"))
	hostile := append([]byte(nil), valid[:12]...)
	hostile = append(hostile, []byte("META\xff\xff\xff\xff\xff\xff\xff\x7f")...)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, h, meta, err := Decode(bytes.NewReader(data), 1)
		g2, h2, meta2, err2 := Decode(iotest.HalfReader(bytes.NewReader(data)), 1)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("known-size reader: %v; unknown-size reader: %v", err, err2)
		}
		if err != nil {
			return
		}
		// Rare survivors must be coherent networks, not partially
		// validated wreckage.
		if g.N() != meta.N || len(h.NodeLeaf) != meta.N {
			t.Fatalf("decoded network inconsistent with meta %+v", meta)
		}
		var a, b bytes.Buffer
		if err := Encode(&a, meta, g, h); err != nil {
			t.Fatal(err)
		}
		if err := Encode(&b, meta2, g2, h2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("the two readers decoded different networks")
		}
	})
}
