package hier

import (
	"testing"

	"geogossip/internal/rng"
)

// checkViewMatchesClone asserts the view's representative table, role
// lists and HasRoles agree with a mutated clone everywhere.
func checkViewMatchesClone(t *testing.T, v *RepView, hc *Hierarchy) {
	t.Helper()
	for _, sq := range hc.Squares {
		if got, want := v.Rep(sq.ID), sq.Rep; got != want {
			t.Fatalf("square %d: view rep %d, clone rep %d", sq.ID, got, want)
		}
	}
	n := len(hc.NodeLeaf)
	for i := int32(0); int(i) < n; i++ {
		got := v.Roles(i)
		want := hc.RepRoles[i]
		if len(got) != len(want) {
			t.Fatalf("node %d: view roles %v, clone roles %v", i, got, want)
		}
		if v.HasRoles(i) != (len(want) > 0) {
			t.Fatalf("node %d: HasRoles %v, clone roles %v", i, v.HasRoles(i), want)
		}
		for k := range want {
			if int(got[k]) != want[k] {
				t.Fatalf("node %d: view roles %v, clone roles %v", i, got, want)
			}
		}
	}
}

// TestRepViewMatchesCloneUnderChurn drives a RepView and a Clone through
// the identical randomized kill/revive/re-elect sequence and asserts they
// agree square for square and role for role after every step — the
// bit-identity contract that lets engines replace the per-run Clone.
func TestRepViewMatchesCloneUnderChurn(t *testing.T) {
	h := buildN(t, 800, 3, Config{})
	v := NewRepView(h)
	hc := h.Clone()
	n := len(h.NodeLeaf)
	dead := make(map[int32]bool)
	alive := func(i int32) bool { return !dead[i] }
	r := rng.New(99)
	var bufView []int
	for step := 0; step < 40; step++ {
		// Flip some liveness: kill a few, revive a few.
		for k := 0; k < 10; k++ {
			i := int32(r.IntN(n))
			if r.Bernoulli(0.7) {
				dead[i] = true
			} else {
				delete(dead, i)
			}
		}
		if r.Bernoulli(0.5) {
			// Full sweep, both sides.
			gotChanged := v.Reelect(alive, bufView[:0])
			wantChanged := hc.Reelect(alive)
			if len(gotChanged) != len(wantChanged) {
				t.Fatalf("step %d: view changed %v, clone changed %v", step, gotChanged, wantChanged)
			}
			for k := range wantChanged {
				if gotChanged[k] != wantChanged[k] {
					t.Fatalf("step %d: view changed %v, clone changed %v", step, gotChanged, wantChanged)
				}
			}
		} else {
			// Single-square re-election on a random populated square.
			id := r.IntN(len(h.Squares))
			if len(h.Squares[id].Members) == 0 {
				continue
			}
			gotRep, gotCh := v.ReelectSquare(id, alive)
			wantRep, wantCh := hc.ReelectSquare(id, alive)
			if gotRep != wantRep || gotCh != wantCh {
				t.Fatalf("step %d square %d: view (%d, %v), clone (%d, %v)",
					step, id, gotRep, gotCh, wantRep, wantCh)
			}
		}
		checkViewMatchesClone(t, v, hc)
	}
	// The base hierarchy must be untouched throughout.
	if err := h.Validate(); err != nil {
		t.Fatalf("base hierarchy mutated: %v", err)
	}
	for _, sq := range h.Squares {
		if sq.Rep != v.repBase[sq.ID] {
			t.Fatalf("base square %d rep changed to %d", sq.ID, sq.Rep)
		}
	}
}

// TestRepViewResetRestoresBase proves Reset reverts every overlay write
// and a re-used view replays a fresh clone exactly (the pooled-run
// contract).
func TestRepViewResetRestoresBase(t *testing.T) {
	h := buildN(t, 600, 11, Config{})
	v := NewRepView(h)

	// Mutate heavily: kill all original reps.
	deadReps := make(map[int32]bool)
	for _, rep := range h.Reps() {
		deadReps[rep] = true
	}
	alive := func(i int32) bool { return !deadReps[i] }
	changed := v.Reelect(alive, nil)
	if len(changed) == 0 {
		t.Fatal("no re-elections happened; test is vacuous")
	}

	v.Reset()
	for _, sq := range h.Squares {
		if v.Rep(sq.ID) != sq.Rep {
			t.Fatalf("after Reset: square %d rep %d, want base %d", sq.ID, v.Rep(sq.ID), sq.Rep)
		}
	}
	for i := int32(0); int(i) < len(h.NodeLeaf); i++ {
		got := v.Roles(i)
		want := h.RepRoles[i]
		if len(got) != len(want) {
			t.Fatalf("after Reset: node %d roles %v, want %v", i, got, want)
		}
	}

	// A second run on the reset view must match a fresh clone.
	hc := h.Clone()
	v.Reelect(alive, nil)
	hc.Reelect(alive)
	checkViewMatchesClone(t, v, hc)

	// Rebinding to the same hierarchy must be cheap and equivalent to
	// Reset.
	v.Bind(h)
	for _, sq := range h.Squares {
		if v.Rep(sq.ID) != sq.Rep {
			t.Fatalf("after rebind: square %d rep %d, want base %d", sq.ID, v.Rep(sq.ID), sq.Rep)
		}
	}
}
