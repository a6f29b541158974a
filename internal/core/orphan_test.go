package core

import (
	"testing"

	"geogossip/internal/hier"
	"geogossip/internal/rng"
)

// countOrphans returns how many nodes have no graph neighbour inside
// their own leaf square.
func countOrphans(f fixture) int {
	st := NewRunState()
	st.bind(f.g, f.h, nil)
	orphans := 0
	for i := 0; i < f.g.N(); i++ {
		if len(st.leafNbrs(int32(i))) == 0 && len(f.h.Leaf(int32(i)).Members) > 1 {
			orphans++
		}
	}
	return orphans
}

func TestOrphanRoutesCoverIsolatedNodes(t *testing.T) {
	// A leaf side comparable to the radio radius makes in-leaf isolation
	// possible; every orphan must get a usable route to its
	// representative.
	f := newFixture(t, 4096, 1.0, 460, hier.Config{LeafTarget: 16})
	st := NewRunState()
	st.bind(f.g, f.h, nil)
	hops := st.repair
	orphans, covered := 0, 0
	for i := 0; i < f.g.N(); i++ {
		leaf := f.h.Leaf(int32(i))
		if len(st.leafNbrs(int32(i))) > 0 || len(leaf.Members) <= 1 || leaf.Rep == int32(i) {
			continue
		}
		orphans++
		if hops[i] > 0 {
			covered++
		}
	}
	if orphans == 0 {
		t.Fatal("test configuration no longer produces orphans; adjust it")
	}
	if covered != orphans {
		t.Fatalf("%d of %d orphans have no route to their representative", orphans-covered, orphans)
	}
}

func TestRecursiveConvergesWithTinyLeaves(t *testing.T) {
	// Regression: before orphan routing, in-leaf-isolated nodes froze
	// their leaf's averaging and every enclosing square burned its full
	// round cap (multiplicatively), making runs pathologically slow and
	// non-convergent.
	f := newFixture(t, 4096, 1.0, 461, hier.Config{LeafTarget: 16})
	if countOrphans(f) == 0 {
		t.Fatal("test configuration no longer produces orphans; adjust it")
	}
	x := randomValues(f.g.N(), 462)
	res, err := RunRecursive(f.g, f.h, x, RecursiveOptions{Eps: 1e-2}, rng.New(463))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("tiny-leaf run did not converge: %v (leaf stalls %d, incomplete %d)",
			res.Result, res.LeafStalls, res.IncompleteSquares)
	}
	if res.LeafStalls != 0 {
		t.Fatalf("leaf stalls despite orphan routing: %d", res.LeafStalls)
	}
}
