package geogossip

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestNewNetworkDefaults(t *testing.T) {
	nw, err := NewNetwork(512)
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 512 {
		t.Fatalf("N = %d", nw.N())
	}
	if nw.Radius() <= 0 || nw.Edges() == 0 || nw.MeanDegree() <= 0 {
		t.Fatalf("degenerate network: r=%v edges=%d deg=%v", nw.Radius(), nw.Edges(), nw.MeanDegree())
	}
	if nw.HierarchyLevels() < 1 {
		t.Fatalf("levels = %d", nw.HierarchyLevels())
	}
	pos := nw.Positions()
	if len(pos) != 512 {
		t.Fatalf("positions = %d", len(pos))
	}
	for _, p := range pos {
		if p[0] < 0 || p[0] >= 1 || p[1] < 0 || p[1] >= 1 {
			t.Fatalf("position %v outside unit square", p)
		}
	}
}

func TestNewNetworkDeterministic(t *testing.T) {
	a, err := NewNetwork(256, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNetwork(256, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges() != b.Edges() {
		t.Fatal("same seed, different networks")
	}
	c, err := NewNetwork(256, WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges() == c.Edges() && a.Positions()[0] == c.Positions()[0] {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestNewNetworkDisconnected(t *testing.T) {
	// Far below the connectivity threshold.
	_, err := NewNetwork(2048, WithRadiusMultiplier(0.3))
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestNewNetworkRejectsNaNRadius(t *testing.T) {
	// A NaN multiplier is a bad radius, not a disconnected instance.
	_, err := NewNetwork(128, WithRadiusMultiplier(math.NaN()))
	if err == nil || errors.Is(err, ErrNotConnected) || !strings.Contains(err.Error(), "radius") {
		t.Fatalf("err = %v, want a radius error", err)
	}
}

// A non-finite leaf target stops the hierarchy recursion at the root
// (+Inf) or only at the depth cap (NaN).
func TestNewNetworkRejectsNonFiniteLeafTarget(t *testing.T) {
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewNetwork(512, WithSeed(3), WithLeafTarget(target))
		if err == nil || !strings.Contains(err.Error(), "WithLeafTarget") {
			t.Fatalf("leaf target %v: err = %v, want an error naming WithLeafTarget", target, err)
		}
	}
}

// A radius multiplier far below connectivity must fail before the build
// sizes its cell grid by the radius: at n = 1000 and c = 1e-5 the grid
// would have about 1.4·10¹² cells.
func TestNewNetworkRejectsTinyRadius(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewNetwork(1000, WithRadiusMultiplier(1e-5))
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, ErrNotConnected) || !strings.Contains(err.Error(), "too small for 1000 points") {
		t.Fatalf("err = %v, want a radius error naming the radius and n", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("rejecting the radius allocated %d bytes, want under 4 MB", grew)
	}
}

func TestNetworkOptions(t *testing.T) {
	deep, err := NewNetwork(1024, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewNetwork(1024, WithSeed(3), WithFlatHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if flat.HierarchyLevels() > 2 {
		t.Fatalf("flat hierarchy has %d levels", flat.HierarchyLevels())
	}
	if deep.HierarchyLevels() < flat.HierarchyLevels() {
		t.Fatal("default hierarchy shallower than flat")
	}
	big, err := NewNetwork(1024, WithSeed(3), WithLeafTarget(2000))
	if err != nil {
		t.Fatal(err)
	}
	if big.HierarchyLevels() != 1 {
		t.Fatalf("huge leaf target still split: %d levels", big.HierarchyLevels())
	}
}

func runAlgorithm(t *testing.T, algo Algorithm, nw *Network, seed uint64) (*Result, []float64, float64) {
	t.Helper()
	values := make([]float64, nw.N())
	// A deterministic non-trivial field: value = x-coordinate + bump.
	for i, p := range nw.Positions() {
		values[i] = p[0]*10 + math.Sin(p[1]*7)
	}
	want := Mean(values)
	res, err := algo.Run(nw, values)
	if err != nil {
		t.Fatal(err)
	}
	return res, values, want
}

func TestAllAlgorithmsAverage(t *testing.T) {
	nw, err := NewNetwork(512, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	algos := []Algorithm{
		Boyd(WithTargetError(1e-2)),
		Geographic(WithTargetError(1e-2)),
		Geographic(WithTargetError(1e-2), WithUniformSampling()),
		AffineHierarchical(WithTargetError(1e-2)),
		AffineAsync(WithTargetError(2e-2), WithMaxTicks(40_000_000)),
	}
	for _, algo := range algos {
		t.Run(algo.Name(), func(t *testing.T) {
			res, values, want := runAlgorithm(t, algo, nw, 1)
			if !res.Converged {
				t.Fatalf("%s did not converge: %+v", algo.Name(), res)
			}
			if math.Abs(Mean(values)-want) > 1e-9 {
				t.Fatalf("mean drifted: %v -> %v", want, Mean(values))
			}
			if res.Transmissions == 0 {
				t.Fatal("no transmissions recorded")
			}
			if len(res.Breakdown) == 0 {
				t.Fatal("no breakdown")
			}
			if len(res.Curve) < 2 {
				t.Fatalf("curve has %d points", len(res.Curve))
			}
		})
	}
}

func TestAlgorithmNames(t *testing.T) {
	cases := map[string]Algorithm{
		"boyd":                Boyd(),
		"geographic":          Geographic(),
		"affine-hierarchical": AffineHierarchical(),
		"affine-async":        AffineAsync(),
	}
	for want, algo := range cases {
		if got := algo.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}
}

func TestRunSizeMismatch(t *testing.T) {
	nw, err := NewNetwork(64, WithSeed(5), WithRadiusMultiplier(2.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{Boyd(), Geographic(), AffineHierarchical(), AffineAsync()} {
		if _, err := algo.Run(nw, make([]float64, 3)); err == nil {
			t.Fatalf("%s accepted mismatched values", algo.Name())
		}
	}
}

// TestRunRejectsNonFiniteValues: a NaN or ±Inf initial value can never
// reach consensus, so every algorithm must refuse it up front, naming
// the bad index and leaving values untouched, instead of spinning to its
// tick cap and reporting a NaN error.
func TestRunRejectsNonFiniteValues(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	algos := []Algorithm{Boyd(), Geographic(), PushSum(), AffineHierarchical(), AffineAsync()}
	const bad = 17
	for _, algo := range algos {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			values := make([]float64, nw.N())
			for i := range values {
				values[i] = float64(i % 7)
			}
			values[bad] = v
			before := append([]float64(nil), values...)
			res, err := algo.Run(nw, values)
			if err == nil {
				t.Fatalf("%s accepted %v at index %d: %+v", algo.Name(), v, bad, res)
			}
			if want := fmt.Sprintf("value %d is %v", bad, v); !strings.Contains(err.Error(), want) {
				t.Errorf("%s with %v: error %q does not name %q", algo.Name(), v, err, want)
			}
			for i := range values {
				if math.Float64bits(values[i]) != math.Float64bits(before[i]) {
					t.Fatalf("%s with %v wrote values[%d] before rejecting", algo.Name(), v, i)
				}
			}
		}
	}
}

func TestWithBetaAffectsAffine(t *testing.T) {
	nw, err := NewNetwork(512, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	run := func(beta float64) uint64 {
		values := make([]float64, nw.N())
		for i, p := range nw.Positions() {
			values[i] = p[0]
		}
		res, err := AffineHierarchical(WithTargetError(1e-2), WithBeta(beta)).Run(nw, values)
		if err != nil {
			t.Fatal(err)
		}
		return res.Transmissions
	}
	if run(0.05) <= run(0.4) {
		t.Fatal("tiny beta should cost more transmissions than the paper's 2/5")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		values := make([]float64, nw.N())
		for i, p := range nw.Positions() {
			values[i] = p[1]
		}
		res, err := Boyd(WithTargetError(1e-2), WithRunSeed(42)).Run(nw, values)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.FinalErr != b.FinalErr {
		t.Fatal("same run seed produced different results")
	}
}
