package gossip

import (
	"math"
	"reflect"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/par"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
	"geogossip/internal/trace"
)

// tickWorkerCounts is the DESIGN.md §9 invariance set: serial inline,
// the smallest real split, and everything the machine has.
func tickWorkerCounts() []int {
	counts := []int{1, 2, par.NumCPU()}
	out := counts[:0]
	for _, w := range counts {
		dup := false
		for _, seen := range out {
			dup = dup || seen == w
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRunBoydParallelWorkerInvariance(t *testing.T) {
	g := generate(t, 400, 2.0, 610)
	opt := Options{
		Stop:     sim.StopRule{TargetErr: 1e-3, MaxTicks: 4_000_000},
		Parallel: Parallel{Shards: 8},
	}
	var refX []float64
	var refRes any
	for _, w := range tickWorkerCounts() {
		x := randomValues(g.N(), 611)
		mean := meanOf(x)
		o := opt
		o.Parallel.Workers = w
		res, err := RunBoyd(g, x, o, rng.New(612))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: parallel boyd did not converge: %v", w, res)
		}
		if math.Abs(meanOf(x)-mean) > 1e-9 {
			t.Fatalf("workers=%d: mean drifted %v -> %v", w, mean, meanOf(x))
		}
		if res.Transmissions == 0 || res.Transmissions != res.TransmissionsByCategory["near"] {
			t.Fatalf("workers=%d: boyd should only use near transmissions: %v", w, res.TransmissionsByCategory)
		}
		if refX == nil {
			refX = append([]float64(nil), x...)
			refRes = res
			continue
		}
		if !sameFloats(refX, x) {
			t.Fatalf("workers=%d: final values differ from workers=1 run", w)
		}
		if !reflect.DeepEqual(refRes, res) {
			t.Fatalf("workers=%d: result differs from workers=1 run:\n%+v\nvs\n%+v", w, refRes, res)
		}
	}
}

func TestRunPushSumParallelWorkerInvariance(t *testing.T) {
	g := generate(t, 400, 2.0, 620)
	var refX, refS, refW []float64
	var refRes any
	for _, w := range tickWorkerCounts() {
		x := randomValues(g.N(), 621)
		mean := meanOf(x)
		res, s, wgt, err := RunPushSumState(g, x, Options{
			Stop:     sim.StopRule{TargetErr: 1e-3, MaxTicks: 4_000_000},
			Parallel: Parallel{Shards: 8, Workers: w},
		}, rng.New(622))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d: parallel push-sum did not converge: %v", w, res)
		}
		var sSum, wSum float64
		for i := range s {
			sSum += s[i]
			wSum += wgt[i]
		}
		if math.Abs(sSum-mean*float64(g.N())) > 1e-6*float64(g.N()) {
			t.Fatalf("workers=%d: mass sum drifted: %v vs %v", w, sSum, mean*float64(g.N()))
		}
		if math.Abs(wSum-float64(g.N())) > 1e-9*float64(g.N()) {
			t.Fatalf("workers=%d: weight sum drifted: %v", w, wSum)
		}
		if refX == nil {
			refX = append([]float64(nil), x...)
			refS = append([]float64(nil), s...)
			refW = append([]float64(nil), wgt...)
			refRes = res
			continue
		}
		if !sameFloats(refX, x) || !sameFloats(refS, s) || !sameFloats(refW, wgt) {
			t.Fatalf("workers=%d: final state differs from workers=1 run", w)
		}
		if !reflect.DeepEqual(refRes, res) {
			t.Fatalf("workers=%d: result differs from workers=1 run:\n%+v\nvs\n%+v", w, refRes, res)
		}
	}
}

// TestParallelPooledStateBitIdentity asserts that a pooled RunState run
// on the sharded schedule is bit-identical to a fresh-state run, and
// that back-to-back pooled runs agree with each other.
func TestParallelPooledStateBitIdentity(t *testing.T) {
	g := generate(t, 300, 2.0, 630)
	run := func(st *RunState) ([]float64, any) {
		x := randomValues(g.N(), 631)
		res, err := RunBoyd(g, x, Options{
			Stop:     sim.StopRule{TargetErr: 5e-3, MaxTicks: 4_000_000},
			Parallel: Parallel{Shards: 5, Workers: 2},
			State:    st,
		}, rng.New(632))
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}
	freshX, freshRes := run(nil)
	st := NewRunState()
	for rep := 0; rep < 3; rep++ {
		x, res := run(st)
		if !sameFloats(freshX, x) || !reflect.DeepEqual(freshRes, res) {
			t.Fatalf("pooled parallel run %d diverged from fresh-state run", rep)
		}
	}
}

func TestParallelGateRejections(t *testing.T) {
	g := generate(t, 80, 2.2, 640)
	p := Parallel{Shards: 4, Workers: 2}
	cases := []struct {
		name string
		opt  Options
	}{
		{"faults", Options{Parallel: p, Faults: channel.Spec{Loss: channel.LossBernoulli, LossRate: 0.2}}},
		{"resync", Options{Parallel: p, Resync: true}},
		{"tracer", Options{Parallel: p, Tracer: trace.NewBuffer(16)}},
	}
	for _, tc := range cases {
		x := randomValues(g.N(), 641)
		if _, err := RunBoyd(g, x, tc.opt, rng.New(642)); err == nil {
			t.Fatalf("boyd accepted Parallel with %s", tc.name)
		}
		x = randomValues(g.N(), 641)
		if _, err := RunPushSum(g, x, tc.opt, rng.New(642)); err == nil {
			t.Fatalf("push-sum accepted Parallel with %s", tc.name)
		}
	}
	x := randomValues(g.N(), 641)
	if _, err := RunGeographic(g, x, GeoOptions{Options: Options{Parallel: p}}, rng.New(642)); err == nil {
		t.Fatal("geographic accepted Parallel (routed exchanges are global)")
	}
}

// TestParallelBlockAllocs asserts the per-shard steady state of both
// block kernels is allocation-free once the deferred queues are warm.
func TestParallelBlockAllocs(t *testing.T) {
	g := generate(t, 256, 2.0, 650)
	n := g.N()
	x := randomValues(n, 651)
	st := NewRunState()
	shards := st.bindShards(Parallel{Shards: 4}, n, rng.New(652))
	mean := meanOf(x)
	warm := func(run func(sh *tickShard)) {
		for rep := 0; rep < 8; rep++ {
			for si := range shards {
				run(&shards[si])
				shards[si].resetBlock()
			}
		}
	}
	warm(func(sh *tickShard) { sh.boydBlock(g, x, mean) })
	for si := range shards {
		sh := &shards[si]
		if allocs := testing.AllocsPerRun(50, func() {
			sh.boydBlock(g, x, mean)
			sh.resetBlock()
		}); allocs != 0 {
			t.Fatalf("boyd shard %d steady state allocates %v allocs/op", si, allocs)
		}
	}
	s := append([]float64(nil), x...)
	w := make([]float64, n)
	est := append([]float64(nil), x...)
	for i := range w {
		w[i] = 1
	}
	warm(func(sh *tickShard) { sh.pushSumBlock(g, s, w, est, mean) })
	for si := range shards {
		sh := &shards[si]
		if allocs := testing.AllocsPerRun(50, func() {
			sh.pushSumBlock(g, s, w, est, mean)
			sh.resetBlock()
		}); allocs != 0 {
			t.Fatalf("push-sum shard %d steady state allocates %v allocs/op", si, allocs)
		}
	}
}

// TestParallelShardSchedule pins the schedule contract: shard bounds
// depend only on (n, Shards), the effective shard count caps at n, and
// stream seeds derive from the documented "pshard" labels.
func TestParallelShardSchedule(t *testing.T) {
	st := NewRunState()
	shards := st.bindShards(Parallel{Shards: 16}, 5, rng.New(660))
	if len(shards) != 5 {
		t.Fatalf("shard count not capped at n: got %d", len(shards))
	}
	bounds := par.Ranges(5, 5)
	for i, sh := range shards {
		if int(sh.lo) != bounds[i] || int(sh.hi) != bounds[i+1] {
			t.Fatalf("shard %d owns [%d,%d), want [%d,%d)", i, sh.lo, sh.hi, bounds[i], bounds[i+1])
		}
	}
	base := rng.DeriveString(rng.New(660).Seed(), "pshard")
	for i, sh := range shards {
		if sh.clock.Seed() != rng.Derive(base, uint64(i), 0) {
			t.Fatalf("shard %d clock stream not derived per contract", i)
		}
		if sh.pick.Seed() != rng.Derive(base, uint64(i), 1) {
			t.Fatalf("shard %d pick stream not derived per contract", i)
		}
	}
}
