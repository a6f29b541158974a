package sim

import (
	"math"
	"testing"

	"geogossip/internal/rng"
)

func TestClockUniform(t *testing.T) {
	const n = 10
	const ticks = 100000
	c := NewClock(n, rng.New(70))
	counts := make([]int, n)
	for i := 0; i < ticks; i++ {
		v := c.Next()
		c.Bump(1)
		if v < 0 || int(v) >= n {
			t.Fatalf("tick returned %d", v)
		}
		counts[v]++
	}
	if c.Ticks() != ticks {
		t.Fatalf("Ticks = %d", c.Ticks())
	}
	for i, cnt := range counts {
		p := float64(cnt) / ticks
		if math.Abs(p-0.1) > 0.01 {
			t.Fatalf("node %d frequency %v, want ~0.1", i, p)
		}
	}
}

func TestClockPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock(0) did not panic")
		}
	}()
	NewClock(0, rng.New(1))
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(CatNear, 2)
	c.Add(CatNear, 2)
	c.Add(CatFar, 10)
	c.Add(CatControl, 5)
	c.Add(CatFlood, 7)
	c.Add(CatFlood, 0)
	if c.Get(CatNear) != 4 || c.Get(CatFar) != 10 || c.Get(CatControl) != 5 || c.Get(CatFlood) != 7 {
		t.Fatalf("counts wrong: %+v", c.Breakdown())
	}
	if c.Total() != 26 {
		t.Fatalf("total = %d", c.Total())
	}
	b := c.Breakdown()
	if b["near"] != 4 || b["far"] != 10 || b["control"] != 5 || b["flood"] != 7 {
		t.Fatalf("breakdown = %v", b)
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative add did not panic")
		}
	}()
	var c Counter
	c.Add(CatNear, -1)
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		CatNear:      "near",
		CatFar:       "far",
		CatControl:   "control",
		CatFlood:     "flood",
		Category(99): "category(99)",
	}
	for cat, want := range cases {
		if got := cat.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", cat, got, want)
		}
	}
}

func TestErrTrackerBasics(t *testing.T) {
	x := []float64{1, 3} // mean 2, dev2 = 2
	tr := NewErrTracker(x)
	if tr.Mean() != 2 {
		t.Fatalf("mean = %v", tr.Mean())
	}
	if math.Abs(tr.Norm0()-math.Sqrt2) > 1e-12 {
		t.Fatalf("norm0 = %v", tr.Norm0())
	}
	if math.Abs(tr.Err()-1) > 1e-12 {
		t.Fatalf("initial err = %v", tr.Err())
	}
	// Move both to the mean: error hits 0.
	tr.Set(0, 2)
	tr.Set(1, 2)
	if tr.Err() > 1e-12 {
		t.Fatalf("err after consensus = %v", tr.Err())
	}
}

func TestErrTrackerMatchesExact(t *testing.T) {
	r := rng.New(71)
	x := make([]float64, 100)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	tr := NewErrTracker(x)
	for step := 0; step < 20000; step++ {
		i := int32(r.IntN(len(x)))
		old := x[i]
		x[i] = old + 0.1*(r.Float64()-0.5) // sum NOT preserved here; tracker still tracks dev vs original mean
		tr.Update(i, old)
	}
	// Compare against exact recomputation.
	mean := tr.Mean()
	var exact float64
	for _, v := range x {
		d := v - mean
		exact += d * d
	}
	if math.Abs(tr.Dev2()-exact) > 1e-6*(1+exact) {
		t.Fatalf("tracked dev2 %v, exact %v", tr.Dev2(), exact)
	}
}

func TestErrTrackerResync(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	tr := NewErrTracker(x)
	x[2] = 10
	tr.Update(2, 2)
	tr.Resync()
	mean := tr.Mean()
	var exact float64
	for _, v := range x {
		d := v - mean
		exact += d * d
	}
	if math.Abs(tr.Dev2()-exact) > 1e-12 {
		t.Fatalf("after resync dev2 = %v, exact %v", tr.Dev2(), exact)
	}
}

func TestErrTrackerConsensusStart(t *testing.T) {
	x := []float64{5, 5, 5}
	tr := NewErrTracker(x)
	if tr.Err() != 0 {
		t.Fatalf("consensus start err = %v", tr.Err())
	}
	if tr.Norm0() != 0 {
		t.Fatalf("norm0 = %v", tr.Norm0())
	}
}

func TestErrTrackerEmpty(t *testing.T) {
	tr := NewErrTracker(nil)
	if tr.Err() != 0 || tr.Dev2() != 0 {
		t.Fatal("empty tracker not zero")
	}
}

func TestErrTrackerClampNegative(t *testing.T) {
	x := []float64{1, -1}
	tr := NewErrTracker(x)
	// Drive to consensus; floating residue must not go negative.
	tr.Set(0, 0)
	tr.Set(1, 0)
	if tr.Dev2() < 0 {
		t.Fatalf("Dev2 = %v", tr.Dev2())
	}
}

func TestStopRule(t *testing.T) {
	s := StopRule{TargetErr: 0.01, MaxTicks: 100}
	if s.Done(5, 0.5) {
		t.Fatal("stopped early")
	}
	if !s.Done(5, 0.01) {
		t.Fatal("did not stop at target error")
	}
	if !s.Done(100, 0.5) {
		t.Fatal("did not stop at max ticks")
	}
	// TargetErr = 0 disables the error condition.
	s2 := StopRule{MaxTicks: 100}
	if s2.Done(5, 0) {
		t.Fatal("stopped on zero error with no target")
	}
	// Defaults.
	d := (StopRule{}).WithDefaults()
	if d.MaxTicks == 0 {
		t.Fatal("default MaxTicks not set")
	}
}
