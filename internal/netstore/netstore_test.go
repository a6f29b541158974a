package netstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
)

func buildNet(t *testing.T, n int, seed uint64, c float64) (*graph.Graph, *hier.Hierarchy) {
	t.Helper()
	g, err := graph.Generate(n, c, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	h, err := hier.Build(g.Points(), hier.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g, h
}

// readerKinds hands a snapshot to Decode through a reader that reports
// its size and through one that does not, which also returns short reads.
var readerKinds = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"known-size", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"unknown-size", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

func TestEncodeDecodeBitIdentical(t *testing.T) {
	g, h := buildNet(t, 3000, 9, 1.3)
	g.VoronoiAreas() // exercise the optional VORO section
	meta := Meta{N: g.N(), Radius: g.Radius(), LeafTarget: 0, MaxDepth: 0}

	var buf bytes.Buffer
	if err := Encode(&buf, meta, g, h); err != nil {
		t.Fatal(err)
	}
	// The adjacency spans several read steps, so the unknown-size reader
	// grows it more than once.
	for _, k := range readerKinds {
		g2, h2, meta2, err := Decode(k.wrap(buf.Bytes()), 1)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if meta2 != meta {
			t.Fatalf("%s: meta = %+v, want %+v", k.name, meta2, meta)
		}
		if !reflect.DeepEqual(g2.Snapshot(), g.Snapshot()) {
			t.Fatalf("%s: graph snapshots differ after round trip", k.name)
		}
		if !reflect.DeepEqual(h2.Snapshot(), h.Snapshot()) {
			t.Fatalf("%s: hierarchy snapshots differ after round trip", k.name)
		}
		if !reflect.DeepEqual(g2.Points(), g.Points()) {
			t.Fatalf("%s: points differ after round trip", k.name)
		}
	}
}

// TestEncodePinnedBytes pins the exact bytes of one snapshot with every
// section present, VORO included; the round trip above cannot see a
// format change that encoder and decoder agree on. The digest was taken
// from the per-element encoder that the bulk array writes replaced, so a
// mismatch means the format moved: that needs a FormatVersion bump, not
// a new digest. It also bounds the bytes one Encode allocates, so the
// array writes stay one growth to the final size.
func TestEncodePinnedBytes(t *testing.T) {
	g, h := buildNet(t, 2048, 2048, 1.5)
	g.VoronoiAreas()
	meta := Meta{N: g.N(), Radius: g.Radius()}
	var buf bytes.Buffer
	if err := Encode(&buf, meta, g, h); err != nil {
		t.Fatal(err)
	}
	const want = "60f2ba4fdebbcbc3fbb9e13b96edf947e58eb0b5aadb763e3f3e4fc735171aed"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("snapshot of %d bytes hashes to %x, want %s", buf.Len(), sum, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Encode(io.Discard, meta, g, h); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.25*float64(buf.Len()) {
		t.Fatalf("Encode allocated %d bytes for a %d-byte snapshot, want under 1.25x", alloc, buf.Len())
	}
}

// TestDecodeAllocationBound bounds what one Decode from a known-size
// reader allocates: each table is allocated once, at its exact count, and
// filled straight from the stream, so the tables plus the validators' own
// scratch stay under 1.5x the snapshot's bytes.
func TestDecodeAllocationBound(t *testing.T) {
	g, h := buildNet(t, 16384, 16384, 1.5)
	g.VoronoiAreas()
	var buf bytes.Buffer
	if err := Encode(&buf, Meta{N: g.N(), Radius: g.Radius()}, g, h); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, _, err := Decode(bytes.NewReader(raw), 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.5*float64(len(raw)) {
		t.Fatalf("Decode allocated %d bytes for a %d-byte snapshot (%.2fx), want under 1.5x",
			alloc, len(raw), float64(alloc)/float64(len(raw)))
	}
}

func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	g, h := buildNet(t, 64, 3, 2.0)
	var buf bytes.Buffer
	if err := Encode(&buf, Meta{N: g.N(), Radius: g.Radius()}, g, h); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit at a spread of offsets; every corruption must surface
	// as an error (almost always a checksum mismatch), never a panic and
	// never a silently different network.
	for _, k := range readerKinds {
		for off := 0; off < len(raw); off += 13 {
			mut := bytes.Clone(raw)
			mut[off] ^= 0x10
			if _, _, _, err := Decode(k.wrap(mut), 1); err == nil {
				t.Fatalf("%s: bit flip at %d decoded without error", k.name, off)
			}
		}
	}
}

// Every proper prefix of a snapshot fails to decode, on both reader
// kinds: values are read before their checksum, so a cut anywhere —
// mid-table included — must still end in an error, never a panic or a
// partial network.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	g, h := buildNet(t, 64, 3, 2.0)
	g.VoronoiAreas()
	var buf bytes.Buffer
	if err := Encode(&buf, Meta{N: g.N(), Radius: g.Radius()}, g, h); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, k := range readerKinds {
		for cut := 0; cut < len(raw); cut++ {
			if _, _, _, err := Decode(k.wrap(raw[:cut]), 1); err == nil {
				t.Fatalf("%s: snapshot cut at %d of %d bytes decoded without error", k.name, cut, len(raw))
			}
		}
	}
}

func TestStoreColdWarmCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{N: 2000, Seed: 17, RadiusMult: 1.3}
	builds := 0
	build := func() (*graph.Graph, *hier.Hierarchy, error) {
		builds++
		g, err := graph.Generate(key.N, key.RadiusMult, rng.New(key.Seed))
		if err != nil {
			return nil, nil, err
		}
		h, err := hier.Build(g.Points(), hier.Config{})
		if err != nil {
			return nil, nil, err
		}
		return g, h, nil
	}

	// Cold: miss, build, persist.
	g1, h1, loaded, err := st.GetOrBuild(key, 1, build)
	if err != nil || loaded || builds != 1 {
		t.Fatalf("cold: loaded=%v builds=%d err=%v", loaded, builds, err)
	}
	if s := st.Stats(); s.Misses != 1 || s.Hits != 0 || s.StoredBytes <= 0 {
		t.Fatalf("cold stats: %+v", s)
	}

	// Warm: a fresh store over the same dir loads without building.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g2, h2, loaded, err := st2.GetOrBuild(key, 1, build)
	if err != nil || !loaded || builds != 1 {
		t.Fatalf("warm: loaded=%v builds=%d err=%v", loaded, builds, err)
	}
	if s := st2.Stats(); s.Hits != 1 || s.LoadTime <= 0 {
		t.Fatalf("warm stats: %+v", s)
	}
	if !reflect.DeepEqual(g2.Snapshot(), g1.Snapshot()) || !reflect.DeepEqual(h2.Snapshot(), h1.Snapshot()) {
		t.Fatal("loaded network differs from built network")
	}

	// Corrupt the entry in place: next get detects it, removes it,
	// rebuilds, re-persists.
	entries, err := filepath.Glob(filepath.Join(dir, "*.ggsnap"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g3, _, loaded, err := st3.GetOrBuild(key, 1, build)
	if err != nil || loaded || builds != 2 {
		t.Fatalf("corrupt: loaded=%v builds=%d err=%v", loaded, builds, err)
	}
	if s := st3.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("corrupt stats: %+v", s)
	}
	if !reflect.DeepEqual(g3.Snapshot(), g1.Snapshot()) {
		t.Fatal("rebuilt network differs")
	}
	// And the re-persisted entry loads clean again.
	st4, _ := Open(dir)
	if _, _, loaded, err := st4.GetOrBuild(key, 1, build); err != nil || !loaded {
		t.Fatalf("re-persisted entry: loaded=%v err=%v", loaded, err)
	}

	// A different key misses and never collides with the first entry.
	other := Key{N: 2000, Seed: 18, RadiusMult: 1.3}
	if other.Fingerprint() == key.Fingerprint() {
		t.Fatal("distinct keys share a fingerprint")
	}
}

func TestStoreRejectsWrongKeyEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{N: 500, Seed: 1, RadiusMult: 1.6}
	build := func() (*graph.Graph, *hier.Hierarchy, error) {
		g, err := graph.Generate(key.N, key.RadiusMult, rng.New(key.Seed))
		if err != nil {
			return nil, nil, err
		}
		h, err := hier.Build(g.Points(), hier.Config{})
		return g, h, err
	}
	if _, _, _, err := st.GetOrBuild(key, 1, build); err != nil {
		t.Fatal(err)
	}
	// Smuggle the entry under a different key's address: the meta check
	// must reject it, and the bad entry must be removed and rebuilt.
	wrong := Key{N: 500, Seed: 2, RadiusMult: 1.6}
	if err := os.Rename(st.path(key), st.path(wrong)); err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	g, _, loaded, err := st.GetOrBuild(wrong, 1, func() (*graph.Graph, *hier.Hierarchy, error) {
		rebuilds++
		g, err := graph.Generate(wrong.N, wrong.RadiusMult, rng.New(wrong.Seed))
		if err != nil {
			return nil, nil, err
		}
		h, err := hier.Build(g.Points(), hier.Config{})
		return g, h, err
	})
	if err != nil || loaded || rebuilds != 1 {
		t.Fatalf("wrong-key entry: loaded=%v rebuilds=%d err=%v", loaded, rebuilds, err)
	}
	if g.N() != wrong.N {
		t.Fatalf("n = %d", g.N())
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestBuildErrorNotStored(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{N: 100, Seed: 3, RadiusMult: 0.4}
	wantErr := os.ErrDeadlineExceeded // arbitrary sentinel
	if _, _, _, err := st.GetOrBuild(key, 1, func() (*graph.Graph, *hier.Hierarchy, error) {
		return nil, nil, wantErr
	}); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*")); len(entries) != 0 {
		t.Fatalf("failed build left %v in the store", entries)
	}
}
