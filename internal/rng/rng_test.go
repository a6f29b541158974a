package rng

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agreed on %d/100 draws", same)
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := New(77).Seed(); got != 77 {
		t.Fatalf("Seed() = %d, want 77", got)
	}
}

func TestStreamIndependence(t *testing.T) {
	root := New(7)
	s1 := root.Stream("routing")
	s2 := root.Stream("clock")
	s1again := New(7).Stream("routing")

	var a, b, c [64]uint64
	for i := range a {
		a[i] = s1.Uint64()
		b[i] = s2.Uint64()
		c[i] = s1again.Uint64()
	}
	if a != c {
		t.Fatal("same (seed, name) did not reproduce the stream")
	}
	if a == b {
		t.Fatal("streams with different names produced identical output")
	}
}

func TestStreamDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Stream("x")
	_ = a.Stream("y")
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("deriving streams perturbed the parent sequence")
		}
	}
}

func TestStreamDiffersFromParent(t *testing.T) {
	// Stream("") must not be the parent stream itself.
	a := New(3)
	b := New(3).Stream("")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("Stream(\"\") tracked the parent on %d/64 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestIntNRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.IntN(10)
		if v < 0 || v >= 10 {
			t.Fatalf("IntN(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("IntN(10) hit only %d distinct values in 10000 draws", len(seen))
	}
}

func TestRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2.5, 7.5)
		if v < -2.5 || v >= 7.5 {
			t.Fatalf("Range(-2.5, 7.5) = %v", v)
		}
	}
}

func TestRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(1, 0) did not panic")
		}
	}()
	New(1).Range(1, 0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(13)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(17)
	const trials = 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestIntNExcept(t *testing.T) {
	r := New(19)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		v := r.IntNExcept(5, 2)
		if v == 2 {
			t.Fatal("IntNExcept returned the excluded value")
		}
		if v < 0 || v >= 5 {
			t.Fatalf("IntNExcept(5, 2) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if i == 2 {
			continue
		}
		got := float64(c) / 50000
		if math.Abs(got-0.25) > 0.02 {
			t.Fatalf("IntNExcept bias: value %d frequency %v, want 0.25", i, got)
		}
	}
}

func TestIntNExceptPanics(t *testing.T) {
	cases := []struct {
		name    string
		n, skip int
	}{
		{"n too small", 1, 0},
		{"skip negative", 5, -1},
		{"skip too large", 5, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("IntNExcept(%d, %d) did not panic", tc.n, tc.skip)
				}
			}()
			New(1).IntNExcept(tc.n, tc.skip)
		})
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(23)
	const trials = 100000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64() = %v < 0", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(29)
	const trials = 200000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("NormFloat64 variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(31)
	for n := 0; n <= 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(37)
	s := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), s...)
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	sum := 0
	for _, v := range s {
		sum += v
	}
	wantSum := 0
	for _, v := range orig {
		wantSum += v
	}
	if sum != wantSum {
		t.Fatalf("Shuffle changed multiset: %v", s)
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should change roughly half the output bits.
	base := mix(0x12345678, 0x9abcdef0)
	totalFlips := 0
	for bit := 0; bit < 64; bit++ {
		flipped := mix(0x12345678^(1<<uint(bit)), 0x9abcdef0)
		totalFlips += popcount(base ^ flipped)
	}
	avg := float64(totalFlips) / 64
	if avg < 24 || avg > 40 {
		t.Fatalf("mix avalanche average %v bits, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestQuickStreamDeterminism(t *testing.T) {
	f := func(seed uint64, name string) bool {
		a := New(seed).Stream(name)
		b := New(seed).Stream(name)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntNExceptNeverReturnsSkip(t *testing.T) {
	r := New(99)
	f := func(nRaw uint8, skipRaw uint8) bool {
		n := int(nRaw%30) + 2
		skip := int(skipRaw) % n
		for i := 0; i < 16; i++ {
			if r.IntNExcept(n, skip) == skip {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveIsPureAndSensitive(t *testing.T) {
	if Derive(1, 2, 3) != Derive(1, 2, 3) {
		t.Fatal("Derive is not deterministic")
	}
	seen := map[uint64]string{}
	cases := []struct {
		name  string
		words []uint64
	}{
		{"empty", nil},
		{"one", []uint64{7}},
		{"pair", []uint64{7, 0}},
		{"swapped", []uint64{0, 7}},
		{"triple", []uint64{7, 0, 0}},
	}
	for _, c := range cases {
		v := Derive(42, c.words...)
		if prev, dup := seen[v]; dup {
			t.Fatalf("Derive collision between %s and %s", prev, c.name)
		}
		seen[v] = c.name
	}
	if Derive(1) == Derive(2) {
		t.Fatal("Derive ignores the base seed")
	}
}

func TestDeriveStringMatchesStreamDerivation(t *testing.T) {
	// DeriveString must yield the seed Stream uses, so generators built
	// either way replay the same sequence.
	a := New(DeriveString(17, "loss"))
	b := New(17).Stream("loss")
	for i := 0; i < 8; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("DeriveString diverges from Stream")
		}
	}
}

// TestReseedMatchesNew proves the pooled-stream contract: Reseed(s)
// followed by any draw sequence is bit-identical to the same draws on a
// fresh New(s), for every draw kind the engines use.
func TestReseedMatchesNew(t *testing.T) {
	pooled := New(999)
	// Consume arbitrary state so Reseed has something to overwrite.
	for i := 0; i < 57; i++ {
		pooled.Uint64()
		pooled.NormFloat64()
	}
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		pooled.Reseed(seed)
		fresh := New(seed)
		if pooled.Seed() != fresh.Seed() {
			t.Fatalf("seed %d: Seed() = %d after Reseed", seed, pooled.Seed())
		}
		for i := 0; i < 200; i++ {
			if a, b := pooled.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 draw %d: %d != %d", seed, i, a, b)
			}
			if a, b := pooled.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d: Float64 draw %d: %v != %v", seed, i, a, b)
			}
			if a, b := pooled.IntN(97), fresh.IntN(97); a != b {
				t.Fatalf("seed %d: IntN draw %d: %d != %d", seed, i, a, b)
			}
			if a, b := pooled.ExpFloat64(), fresh.ExpFloat64(); a != b {
				t.Fatalf("seed %d: ExpFloat64 draw %d: %v != %v", seed, i, a, b)
			}
			if a, b := pooled.NormFloat64(), fresh.NormFloat64(); a != b {
				t.Fatalf("seed %d: NormFloat64 draw %d: %v != %v", seed, i, a, b)
			}
		}
	}
}

// TestStreamIntoMatchesStream proves StreamInto reseeds to the exact
// substream Stream derives.
func TestStreamIntoMatchesStream(t *testing.T) {
	parent := New(7)
	pooled := New(123) // arbitrary prior state
	for _, name := range []string{"clock", "pick", "loss", "churn", ""} {
		got := parent.StreamInto(pooled, name)
		if got != pooled {
			t.Fatalf("stream %q: StreamInto did not reuse the supplied generator", name)
		}
		want := parent.Stream(name)
		for i := 0; i < 100; i++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("stream %q draw %d: %d != %d", name, i, a, b)
			}
		}
	}
	if got := parent.StreamInto(nil, "clock"); got == nil {
		t.Fatal("StreamInto(nil) returned nil")
	}
}

// TestPermIntoMatchesPerm proves PermInto consumes the identical draw
// sequence and produces the identical permutation as Perm — the
// hot-path substitution contract.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 256} {
		a, b := New(11), New(11)
		buf := make([]int, n)
		for round := 0; round < 5; round++ {
			want := a.Perm(n)
			got := b.PermInto(buf)
			if len(got) != len(want) {
				t.Fatalf("n=%d round %d: length %d != %d", n, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d round %d: perm[%d] = %d, want %d", n, round, i, got[i], want[i])
				}
			}
			// The generators must remain in lockstep: identical swap draws.
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("n=%d round %d: generators diverged after perm: %d != %d", n, round, x, y)
			}
		}
	}
}

// countingSource counts the draws taken from the PCG it wraps.
type countingSource struct {
	pcg   *rand.PCG
	draws int
}

func (c *countingSource) Uint64() uint64 { c.draws++; return c.pcg.Uint64() }

// TestDrawsMatchMathRand pins the draws RNG serves from its PCG source
// directly to math/rand/v2's Rand over an identically seeded PCG, the
// reference, for every n class of the reduction: 1, powers of two (the
// mask), small odd sizes, 2^31−1, and sizes just above 2^62 and near
// 2^63, where the Lemire multiply's rejection loop runs. NormFloat64,
// ExpFloat64 and Shuffle, which RNG serves through rand.Rand, are
// interleaved with them: the two paths must keep consuming one stream.
func TestDrawsMatchMathRand(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 7, 10, 97, 1 << 10, 1000, 1<<31 - 1, 1 << 31, 1 << 40,
		1<<62 + 1, 3 << 61, 5 << 60, 1<<63 - 3, 1<<63 - 1}
	for _, seed := range []uint64{0, 1, 42, 1 << 40} {
		got := New(seed)
		src := &countingSource{pcg: rand.NewPCG(seed, mix(seed, 0x9e3779b97f4a7c15))}
		want := rand.New(src)
		rejected := 0 // IntN calls that took more than one draw
		sg, sw := make([]int, 9), make([]int, 9)
		for i := 0; i < 500; i++ {
			for _, n := range ns {
				before := src.draws
				if a, b := got.IntN(n), want.IntN(n); a != b {
					t.Fatalf("seed %d round %d: IntN(%d) = %d, want %d", seed, i, n, a, b)
				}
				if src.draws > before+1 {
					rejected++
				}
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d round %d: Uint64 = %d, want %d", seed, i, a, b)
			}
			if a, b := got.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d round %d: Float64 = %v, want %v", seed, i, a, b)
			}
			if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
				t.Fatalf("seed %d round %d: NormFloat64 = %v, want %v", seed, i, a, b)
			}
			if a, b := got.Bernoulli(0.3), want.Float64() < 0.3; a != b {
				t.Fatalf("seed %d round %d: Bernoulli(0.3) = %v, want %v", seed, i, a, b)
			}
			if a, b := got.Range(-2, 5), -2+7*want.Float64(); a != b {
				t.Fatalf("seed %d round %d: Range(-2, 5) = %v, want %v", seed, i, a, b)
			}
			if a, b := got.ExpFloat64(), want.ExpFloat64(); a != b {
				t.Fatalf("seed %d round %d: ExpFloat64 = %v, want %v", seed, i, a, b)
			}
			skip := i % 9
			b := want.IntN(8)
			if b >= skip {
				b++
			}
			if a := got.IntNExcept(9, skip); a != b {
				t.Fatalf("seed %d round %d: IntNExcept(9, %d) = %d, want %d", seed, i, skip, a, b)
			}
			for k := range sg {
				sg[k], sw[k] = k, k
			}
			got.Shuffle(len(sg), func(i, j int) { sg[i], sg[j] = sg[j], sg[i] })
			want.Shuffle(len(sw), func(i, j int) { sw[i], sw[j] = sw[j], sw[i] })
			if !slices.Equal(sg, sw) {
				t.Fatalf("seed %d round %d: Shuffle = %v, want %v", seed, i, sg, sw)
			}
		}
		if rejected == 0 {
			t.Fatalf("seed %d: no IntN draw reached the rejection loop", seed)
		}
	}
}
