package netstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
)

// Key is the semantic build fingerprint: everything that determines the
// bits of a built network. RadiusMult is the connectivity-radius
// multiplier c (the resolved radius is ConnectivityRadius(N, c));
// LeafTarget and MaxDepth are the configured hierarchy knobs, zero
// meaning the documented defaults. Worker counts are deliberately absent
// — construction is byte-identical at any parallelism.
type Key struct {
	N          int
	Seed       uint64
	RadiusMult float64
	LeafTarget float64
	MaxDepth   int
}

// Radius resolves the key's connection radius exactly as the builders do.
func (k Key) Radius() float64 { return graph.ConnectivityRadius(k.N, k.RadiusMult) }

// Fingerprint returns the key's content address. The format version is
// part of the preimage, so a format bump silently invalidates every
// cached entry instead of tripping version errors on load. Floats are
// fingerprinted by their IEEE-754 bits: keys collide exactly when the
// builds they describe would.
func (k Key) Fingerprint() string {
	pre := fmt.Sprintf("geogossip net v%d n=%d seed=%d c=%016x lt=%016x md=%d",
		FormatVersion, k.N, k.Seed,
		math.Float64bits(k.RadiusMult), math.Float64bits(k.LeafTarget), k.MaxDepth)
	sum := sha256.Sum256([]byte(pre))
	return hex.EncodeToString(sum[:])
}

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	// Hits counts networks loaded from disk; Misses counts cache misses
	// that fell back to a fresh build (including corrupted entries, which
	// Corrupt counts separately).
	Hits, Misses, Corrupt uint64
	// StoredBytes totals the snapshot bytes written by this process.
	StoredBytes int64
	// LoadTime is the cumulative wall-clock spent decoding snapshots.
	LoadTime time.Duration
}

// Store is a content-addressed cache of built networks under one
// directory. Entries are written via temp file + rename, so concurrent
// processes sharing the directory never observe partial snapshots; a
// half-written file left by a crash fails its checksums on load and is
// removed and rebuilt transparently.
type Store struct {
	dir string

	mu       sync.Mutex
	inflight map[string]*flight

	hits, misses, corrupt atomic.Uint64
	storedBytes           atomic.Int64
	loadNanos             atomic.Int64
}

type flight struct {
	done   chan struct{}
	g      *graph.Graph
	h      *hier.Hierarchy
	loaded bool
	err    error
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("netstore: %w", err)
	}
	return &Store{dir: dir, inflight: make(map[string]*flight)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		StoredBytes: s.storedBytes.Load(),
		LoadTime:    time.Duration(s.loadNanos.Load()),
	}
}

func (s *Store) path(k Key) string {
	return filepath.Join(s.dir, k.Fingerprint()+".ggsnap")
}

// GetOrBuild returns the network for key, loading it from the store when
// a valid snapshot exists and otherwise calling build and persisting the
// result. The returned bool reports a load. Concurrent calls for the
// same key within this process share one load/build (singleflight);
// distinct keys never block each other. A corrupted or stale entry is
// removed and rebuilt — the store degrades to a plain build, it never
// fails a run that a build would have completed. build errors (e.g. a
// disconnected instance) are returned as-is and nothing is stored, so
// only connected, fully built networks ever enter the store.
func (s *Store) GetOrBuild(key Key, workers int, build func() (*graph.Graph, *hier.Hierarchy, error)) (*graph.Graph, *hier.Hierarchy, bool, error) {
	fp := key.Fingerprint()
	s.mu.Lock()
	if f, ok := s.inflight[fp]; ok {
		s.mu.Unlock()
		<-f.done
		// Followers ride the leader's load or build; the counters track
		// disk traffic, so they count nothing here.
		return f.g, f.h, f.loaded, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[fp] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, fp)
		s.mu.Unlock()
		close(f.done)
	}()

	path := s.path(key)
	if g, h, err := s.load(path, key, workers); err == nil {
		f.g, f.h, f.loaded = g, h, true
		return g, h, true, nil
	} else if !os.IsNotExist(err) {
		// Present but unreadable: corrupt, truncated, or written by an
		// incompatible build. Drop it and fall through to a fresh build.
		s.corrupt.Add(1)
		os.Remove(path)
	}
	s.misses.Add(1)

	g, h, err := build()
	if err != nil {
		f.err = err
		return nil, nil, false, err
	}
	f.g, f.h = g, h
	s.persist(path, key, g, h)
	return g, h, false, nil
}

// load reads and validates the snapshot at path, checking its meta and
// its point placement against the key so a (vanishingly unlikely)
// fingerprint collision or a hand-renamed file cannot smuggle in the
// wrong network. Replaying the O(n) point draw is noise next to the
// O(n·deg) adjacency scan the load avoids, and it anchors the whole
// entry: the points must match the seed bit-for-bit, and Decode already
// validated every other table's structure against the points.
func (s *Store) load(path string, key Key, workers int) (*graph.Graph, *hier.Hierarchy, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fh.Close()
	start := time.Now()
	g, h, meta, err := Decode(fh, workers)
	if err != nil {
		return nil, nil, err
	}
	want := Meta{N: key.N, Radius: key.Radius(), LeafTarget: key.LeafTarget, MaxDepth: key.MaxDepth}
	if meta != want {
		return nil, nil, fmt.Errorf("netstore: snapshot meta %+v does not match key %+v", meta, want)
	}
	pts := g.Points()
	for i, p := range graph.UniformPoints(key.N, rng.New(key.Seed).Stream("points")) {
		if pts[i] != p {
			return nil, nil, fmt.Errorf("netstore: snapshot point %d = %v, seed %d places %v", i, pts[i], key.Seed, p)
		}
	}
	s.loadNanos.Add(time.Since(start).Nanoseconds())
	s.hits.Add(1)
	return g, h, nil
}

// persist writes the snapshot atomically, best-effort: a full disk or
// read-only directory costs the cache, never the run.
func (s *Store) persist(path string, key Key, g *graph.Graph, h *hier.Hierarchy) {
	tmp, err := os.CreateTemp(s.dir, ".ggsnap-*")
	if err != nil {
		return
	}
	meta := Meta{N: key.N, Radius: key.Radius(), LeafTarget: key.LeafTarget, MaxDepth: key.MaxDepth}
	if err := Encode(tmp, meta, g, h); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	size, sizeErr := tmp.Seek(0, 2)
	if err := tmp.Close(); err != nil || sizeErr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.storedBytes.Add(size)
}
