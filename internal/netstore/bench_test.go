package netstore

import (
	"bytes"
	"fmt"
	"testing"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
)

// Load-vs-build benchmarks: decoding a snapshot (sequential read +
// validation) against reconstructing the network (O(n·deg) radius scan +
// hierarchy recursion). Reference numbers and the measured build/load
// ratio live in BENCH_engines.json; the million-node cases are skipped
// under -short so bench smoke stays bounded.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, c := range []struct {
		n     int
		large bool
	}{
		{65536, false},
		{1000000, true},
	} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			if c.large && testing.Short() {
				b.Skip("million-node snapshot skipped in -short mode")
			}
			g, err := graph.GenerateWorkers(c.n, 1.5, rng.New(991), 0)
			if err != nil {
				b.Fatal(err)
			}
			h, err := hier.Build(g.Points(), hier.Config{})
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Encode(&buf, Meta{N: c.n, Radius: g.Radius()}, g, h); err != nil {
				b.Fatal(err)
			}
			raw := buf.Bytes()
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g2, _, _, err := Decode(bytes.NewReader(raw), 0)
				if err != nil {
					b.Fatal(err)
				}
				if g2.N() != c.n {
					b.Fatalf("decoded %d nodes, want %d", g2.N(), c.n)
				}
			}
		})
	}
}

// BenchmarkNetworkBuild is the rebuild this package's loads replace —
// the same generate + hierarchy pipeline the sweep's netCache runs on a
// store miss. Compare against BenchmarkSnapshotLoad at equal n.
func BenchmarkNetworkBuild(b *testing.B) {
	for _, c := range []struct {
		n     int
		large bool
	}{
		{65536, false},
		{1000000, true},
	} {
		b.Run(fmt.Sprintf("n=%d", c.n), func(b *testing.B) {
			if c.large && testing.Short() {
				b.Skip("million-node build skipped in -short mode")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := graph.GenerateWorkers(c.n, 1.5, rng.New(991), 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := hier.Build(g.Points(), hier.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
