package core

import (
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/graph"
	"geogossip/internal/hier"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// smoothValues is the worst-case low-frequency field over the node
// positions.
func smoothValues(g *graph.Graph) []float64 {
	x := make([]float64, g.N())
	for i := range x {
		p := g.Point(int32(i))
		x[i] = 10*p.X + p.Y
	}
	return x
}

// repChurn parses a rep-targeted churn spec.
func repChurn(t *testing.T, text string) channel.Spec {
	t.Helper()
	spec, err := channel.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRecursiveReelectionUnderTargetedChurn(t *testing.T) {
	f := newFixture(t, 200, 2.0, 50, hier.Config{})
	g, h := f.g, f.h
	run := func(recover bool) *Result {
		x := smoothValues(g)
		res, err := RunRecursive(g, h, x, RecursiveOptions{
			Eps:     1e-2,
			Faults:  repChurn(t, "repchurn:20000/20000"),
			Recover: recover,
		}, rng.New(51))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := run(true)
	if rec.Reelections == 0 {
		t.Fatal("no re-elections despite rep-targeted churn")
	}
	if !rec.Converged {
		t.Fatalf("recovery run did not converge: err=%v", rec.FinalErr)
	}
	if rec.Result.Reelections != rec.Reelections {
		t.Fatal("re-election count not mirrored into the shared result")
	}
	if base := run(false); base.Reelections != 0 {
		t.Fatal("re-elections fired without Recover")
	}
}

func TestRecursiveRecoveryReducesCrashStopDamage(t *testing.T) {
	// Crash-stop churn against representatives: dead reps freeze their
	// values, so neither run can fully converge — but re-election keeps
	// the hierarchy exchanging and must land far closer to consensus.
	f := newFixture(t, 128, 2.0, 52, hier.Config{})
	g, h := f.g, f.h
	run := func(recover bool) *Result {
		x := smoothValues(g)
		res, err := RunRecursive(g, h, x, RecursiveOptions{
			Eps:     1e-2,
			Faults:  repChurn(t, "repchurn:20000/0"),
			Recover: recover,
		}, rng.New(53))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec, base := run(true), run(false)
	if rec.Reelections == 0 {
		t.Fatal("crash-stop run performed no re-elections")
	}
	if rec.FinalErr >= base.FinalErr {
		t.Fatalf("recovery err %v not below unrecovered err %v", rec.FinalErr, base.FinalErr)
	}
}

func TestRecursiveRecoverDoesNotMutateSharedHierarchy(t *testing.T) {
	f := newFixture(t, 200, 2.0, 54, hier.Config{})
	g, h := f.g, f.h
	before := make([]int32, len(h.Squares))
	for i, sq := range h.Squares {
		before[i] = sq.Rep
	}
	x := smoothValues(g)
	if _, err := RunRecursive(g, h, x, RecursiveOptions{
		Eps:     1e-2,
		Faults:  repChurn(t, "repchurn:20000/20000"),
		Recover: true,
	}, rng.New(55)); err != nil {
		t.Fatal(err)
	}
	for i, sq := range h.Squares {
		if sq.Rep != before[i] {
			t.Fatalf("engine mutated shared hierarchy: square %d rep %d -> %d", i, before[i], sq.Rep)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("shared hierarchy invalid after recovery run: %v", err)
	}
}

func TestAsyncRecoverySurvivesTargetedChurn(t *testing.T) {
	f := newFixture(t, 200, 2.0, 56, hier.Config{})
	g, h := f.g, f.h
	run := func(recover bool) *AsyncResult {
		x := smoothValues(g)
		res, err := RunAsync(g, h, x, AsyncOptions{
			Eps:     1e-2,
			Faults:  repChurn(t, "repchurn:60000/60000"),
			Recover: recover,
			Stop:    sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
		}, rng.New(57))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rec := run(true)
	if rec.Reelections == 0 {
		t.Fatal("async recovery performed no re-elections")
	}
	if rec.Resyncs == 0 {
		t.Fatal("async recovery resynced no revived node")
	}
	if !rec.Converged {
		t.Fatalf("async recovery run did not converge: err=%v", rec.FinalErr)
	}
	base := run(false)
	if rec.FinalErr >= base.FinalErr {
		t.Fatalf("recovery err %v not below unrecovered err %v", rec.FinalErr, base.FinalErr)
	}
}

func TestRepTargetedSpecRejectedWithoutHierarchyContext(t *testing.T) {
	// The recursive engine supplies Reps, so repchurn builds; a spec that
	// needs more hubs than nodes must fail cleanly.
	f := newFixture(t, 64, 2.5, 58, hier.Config{})
	g, h := f.g, f.h
	x := smoothValues(g)
	spec, err := channel.Parse("hubchurn:1000/0/100")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRecursive(g, h, x, RecursiveOptions{Eps: 1e-2, Faults: spec}, rng.New(59)); err == nil {
		t.Fatal("hub count above n accepted")
	}
}

// TestRepairBridgesFollowCrossComponentTakeover: when a re-elected
// representative lies in a different in-leaf component than its
// predecessor, the repair bridges must be re-derived — the old rep's
// component needs a bridge it never had, or it is stranded forever.
func TestRepairBridgesFollowCrossComponentTakeover(t *testing.T) {
	f := newFixture(t, 4096, 1.0, 464, hier.Config{LeafTarget: 16})
	st := NewRunState()
	st.bind(f.g, f.h, nil)
	adj := st.leafNbrs
	hops := st.repair

	// Component labels within one leaf, via BFS over leaf-restricted
	// adjacency.
	label := func(sq *hier.Square) map[int32]int32 {
		comp := make(map[int32]int32, len(sq.Members))
		next := int32(0)
		for _, m := range sq.Members {
			if _, seen := comp[m]; seen {
				continue
			}
			comp[m] = next
			queue := []int32{m}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range adj(u) {
					if _, seen := comp[v]; !seen {
						comp[v] = next
						queue = append(queue, v)
					}
				}
			}
			next++
		}
		return comp
	}

	var sq *hier.Square
	for _, s := range f.h.Leaves() {
		for _, m := range s.Members {
			if hops[m] != 0 {
				sq = s
				break
			}
		}
		if sq != nil {
			break
		}
	}
	if sq == nil {
		t.Fatal("configuration produces no multi-component leaves; adjust it")
	}

	comp := label(sq)
	repComp := comp[sq.Rep]
	var dead []int32
	for _, m := range sq.Members {
		if comp[m] == repComp {
			dead = append(dead, m)
		}
	}
	alive := func(i int32) bool {
		for _, d := range dead {
			if d == i {
				return false
			}
		}
		return true
	}
	next, changed := st.view.ReelectSquare(sq.ID, alive)
	if !changed || next < 0 {
		t.Fatalf("takeover failed (next %d, changed %v)", next, changed)
	}
	if comp[next] == repComp {
		t.Fatal("successor landed in the dead component; scenario broken")
	}

	st.repairLeafSquareInto(st.mutableRepair(), sq, st.view.Rep(sq.ID))
	hops = st.repair

	// Every component except the successor's owns exactly one bridge —
	// including the old representative's, which had none before.
	bridges := make(map[int32]int)
	for _, m := range sq.Members {
		if hops[m] != 0 {
			if comp[m] == comp[next] {
				t.Fatalf("bridge %d inside the successor's own component", m)
			}
			bridges[comp[m]]++
		}
	}
	seen := make(map[int32]bool)
	for _, m := range sq.Members {
		c := comp[m]
		if c == comp[next] || seen[c] {
			continue
		}
		seen[c] = true
		if bridges[c] != 1 {
			t.Fatalf("component %d has %d bridges, want exactly 1 (old rep comp = %d)", c, bridges[c], repComp)
		}
	}
}
