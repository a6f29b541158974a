package geogossip

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, err := NewNetwork(512, WithSeed(50), WithRadiusMultiplier(1.8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.N() != orig.N() || loaded.Edges() != orig.Edges() ||
		loaded.Radius() != orig.Radius() || loaded.HierarchyLevels() != orig.HierarchyLevels() {
		t.Fatalf("round trip changed network: %d/%d edges, %v/%v radius, %d/%d levels",
			loaded.Edges(), orig.Edges(), loaded.Radius(), orig.Radius(),
			loaded.HierarchyLevels(), orig.HierarchyLevels())
	}
	lp, op := loaded.Positions(), orig.Positions()
	for i := range op {
		if lp[i] != op[i] {
			t.Fatalf("position %d changed: %v -> %v", i, op[i], lp[i])
		}
	}
	// An algorithm run on the loaded network behaves identically.
	mk := func(nw *Network) *Result {
		values := make([]float64, nw.N())
		for i, p := range nw.Positions() {
			values[i] = p[0]
		}
		res, err := Boyd(WithTargetError(1e-2), WithRunSeed(9)).Run(nw, values)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(orig), mk(loaded)
	if a.Transmissions != b.Transmissions || a.FinalErr != b.FinalErr {
		t.Fatal("run on loaded network differs from original")
	}
}

func TestSaveLoadPreservesHierarchyOptions(t *testing.T) {
	orig, err := NewNetwork(1024, WithSeed(51), WithFlatHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HierarchyLevels() != orig.HierarchyLevels() {
		t.Fatalf("levels %d != %d", loaded.HierarchyLevels(), orig.HierarchyLevels())
	}
}

// Save writes the binary snapshot format; a loaded network must carry
// the exact adjacency, not a rebuild.
func TestSaveWritesBinarySnapshots(t *testing.T) {
	orig, err := NewNetwork(256, WithSeed(52))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 8 || buf.Bytes()[0] != 0x89 || string(buf.Bytes()[1:4]) != "GGS" {
		t.Fatalf("Save did not write the snapshot magic (got % x)", buf.Bytes()[:8])
	}
}

// The legacy JSON v1 encoding loads forever, sniffed by its leading '{'.
func TestLoadNetworkLegacyJSON(t *testing.T) {
	orig, err := NewNetwork(512, WithSeed(53), WithLeafTarget(24))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(networkJSON{
		Version:    networkFormatVersion,
		Radius:     orig.Radius(),
		LeafTarget: 24,
		Points:     orig.Positions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Edges() != orig.Edges() || loaded.HierarchyLevels() != orig.HierarchyLevels() {
		t.Fatalf("legacy load: %d/%d edges, %d/%d levels",
			loaded.Edges(), orig.Edges(), loaded.HierarchyLevels(), orig.HierarchyLevels())
	}
}

// Both formats load transparently through a gzip wrapper.
func TestLoadNetworkGzip(t *testing.T) {
	orig, err := NewNetwork(512, WithSeed(54))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := orig.Save(&plain); err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(networkJSON{
		Version: networkFormatVersion,
		Radius:  orig.Radius(),
		Points:  orig.Positions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"binary": plain.Bytes(), "json": legacy} {
		var zipped bytes.Buffer
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadNetwork(&zipped)
		if err != nil {
			t.Fatalf("%s.gz: %v", name, err)
		}
		if loaded.N() != orig.N() || loaded.Edges() != orig.Edges() {
			t.Fatalf("%s.gz round trip changed the network", name)
		}
	}
}

// gzipLayers wraps raw in the given number of uncompressed gzip layers,
// each a few dozen bytes larger than the one inside it.
func gzipLayers(tb testing.TB, raw []byte, layers int) []byte {
	tb.Helper()
	var zw *gzip.Writer
	for i := 0; i < layers; i++ {
		var buf bytes.Buffer
		if zw == nil {
			var err error
			if zw, err = gzip.NewWriterLevel(&buf, gzip.NoCompression); err != nil {
				tb.Fatal(err)
			}
		} else {
			zw.Reset(&buf)
		}
		if _, err := zw.Write(raw); err != nil {
			tb.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			tb.Fatal(err)
		}
		raw = buf.Bytes()
	}
	return raw
}

// LoadNetwork unwraps one gzip layer and rejects a second. Each unwrapped
// layer holds a buffer and a decompressor, so unbounded nesting would let
// a file of a few hundred kilobytes allocate hundreds of MB.
func TestLoadNetworkGzipLayers(t *testing.T) {
	orig, err := NewNetwork(64, WithSeed(50), WithRadiusMultiplier(1.2))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := orig.Save(&plain); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(bytes.NewReader(gzipLayers(t, plain.Bytes(), 1)))
	if err != nil {
		t.Fatalf("one gzip layer: %v", err)
	}
	if loaded.N() != orig.N() || loaded.Edges() != orig.Edges() {
		t.Fatal("one gzip layer changed the network")
	}
	if _, err := LoadNetwork(bytes.NewReader(gzipLayers(t, plain.Bytes(), 2))); err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("two gzip layers: %v", err)
	}

	deep := gzipLayers(t, plain.Bytes(), 5000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = LoadNetwork(bytes.NewReader(deep))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "nested") {
		t.Fatalf("5000 gzip layers: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("5000 gzip layers in %d bytes allocated %d bytes before failing, want under 4 MB", len(deep), grew)
	}
}

// FuzzLoadNetwork feeds LoadNetwork's format sniffing — one gzip layer
// around the binary snapshot or the legacy JSON container — arbitrary
// bytes. It must return an error or a coherent network, never panic.
// The seed corpus in testdata/fuzz/FuzzLoadNetwork holds a 64-node
// snapshot, its gzip, a two-layer gzip, the legacy JSON network and a
// truncated snapshot.
func FuzzLoadNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := LoadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(nw.Positions()) != nw.N() || len(nw.h.NodeLeaf) != nw.N() {
			t.Fatalf("loaded network inconsistent: %d points, %d nodes, %d in the hierarchy",
				len(nw.Positions()), nw.N(), len(nw.h.NodeLeaf))
		}
	})
}

func TestLoadNetworkErrors(t *testing.T) {
	if _, err := LoadNetwork(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadNetwork(strings.NewReader(`{"version":99,"radius":0.1,"points":[]}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := LoadNetwork(strings.NewReader(`{"version":1,"radius":0.1,"points":[[2.5,0.5]]}`)); err == nil {
		t.Fatal("out-of-square point accepted")
	}
	if _, err := LoadNetwork(strings.NewReader(`{"version":1,"radius":-1,"points":[]}`)); err == nil {
		t.Fatal("negative radius accepted")
	}
	// A radius far below connectivity must fail before the rebuild sizes
	// its cell grid by it (here 10^18 cells).
	if _, err := LoadNetwork(strings.NewReader(`{"version":1,"radius":1e-9,"points":[[0.5,0.5]]}`)); err == nil || !strings.Contains(err.Error(), "too small") {
		t.Fatalf("tiny radius: %v", err)
	}
}
