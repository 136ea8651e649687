package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for splitmix64 with seed 0 (from the public domain
	// reference implementation by Sebastiano Vigna).
	state := uint64(0)
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
		0xF88BB8A8724C81EC,
		0x1B39896A51A8749B,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Fatalf("splitmix64[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestNewIsDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestScopedStreamsDiffer(t *testing.T) {
	a := NewScoped(7, 1)
	b := NewScoped(7, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("scoped streams collided %d/64 times", same)
	}
}

func TestMix64AvalancheOnScope(t *testing.T) {
	// Consecutive scope IDs must produce unrelated seeds.
	base := Mix64(99, 1000)
	for d := uint64(1); d <= 8; d++ {
		diff := base ^ Mix64(99, 1000+d)
		ones := 0
		for b := 0; b < 64; b++ {
			if diff&(1<<b) != 0 {
				ones++
			}
		}
		if ones < 16 || ones > 48 {
			t.Fatalf("weak avalanche for delta %d: %d differing bits", d, ones)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(3)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestInt63nUniform(t *testing.T) {
	r := New(5)
	const n, buckets = 90000, 9
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		v := r.Int63n(buckets)
		if v < 0 || v >= buckets {
			t.Fatalf("Int63n out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d far from %v", b, c, want)
		}
	}
}

func TestInt63nPowerOfTwo(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 20)
		if v < 0 || v >= 1<<20 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Int63n(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	mu, sigma := 5.0, 2.0
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Normal(mu, sigma)
		sum += x
		sumsq += x * x
	}
	m := sum / n
	v := sumsq/n - m*m
	if math.Abs(m-mu) > 0.05 {
		t.Fatalf("normal mean %v, want %v", m, mu)
	}
	if math.Abs(math.Sqrt(v)-sigma) > 0.05 {
		t.Fatalf("normal stddev %v, want %v", math.Sqrt(v), sigma)
	}
}

func TestBinomialSmallExact(t *testing.T) {
	r := New(13)
	const trials = 50000
	n, p := int64(10), 0.3
	var sum float64
	for i := 0; i < trials; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("binomial out of range: %d", k)
		}
		sum += float64(k)
	}
	mean := sum / trials
	if math.Abs(mean-float64(n)*p) > 0.05 {
		t.Fatalf("binomial mean %v, want %v", mean, float64(n)*p)
	}
}

func TestBinomialLargeApprox(t *testing.T) {
	r := New(17)
	const trials = 20000
	n, p := int64(1_000_000), 1e-4
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(n, p))
	}
	mean := sum / trials
	want := float64(n) * p // 100
	if math.Abs(mean-want) > 1 {
		t.Fatalf("binomial(large) mean %v, want ~%v", mean, want)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(19)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(100, 0); got != 0 {
		t.Fatalf("Binomial(100, 0) = %d", got)
	}
	if got := r.Binomial(100, 1); got != 100 {
		t.Fatalf("Binomial(100, 1) = %d", got)
	}
	if got := r.Binomial(1<<40, 2); got != 1<<40 {
		t.Fatalf("Binomial(n, 2) = %d, want clamp to n", got)
	}
}

func TestUniformToProperty(t *testing.T) {
	r := New(23)
	f := func(seed uint16) bool {
		hi := 1 + float64(seed%1000)
		v := r.UniformTo(hi)
		return v >= 0 && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformInProperty(t *testing.T) {
	r := New(29)
	f := func(a, b uint16) bool {
		lo := float64(a % 100)
		hi := lo + 1 + float64(b%100)
		v := r.UniformIn(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// BenchmarkUniforms reports ns per uniform for a batch of 32 drawn as
// a full DrawLanes call draws them, by call=UniformTo (one call per value) and by
// call=UniformsTo (one call per batch).
func BenchmarkUniforms(b *testing.B) {
	for _, batched := range []bool{false, true} {
		name := "call=UniformTo"
		if batched {
			name = "call=UniformsTo"
		}
		b.Run(name, func(b *testing.B) {
			r := New(1)
			var xs [32]float64
			var sink float64
			for i := 0; i < b.N; i += len(xs) {
				if batched {
					r.UniformsTo(xs[:], 0.75)
				} else {
					for l := range xs {
						xs[l] = r.UniformTo(0.75)
					}
				}
				sink += xs[0] + xs[len(xs)-1]
			}
			_ = sink
		})
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal(0, 1)
	}
	_ = sink
}

// TestReseedEqualsNewScoped: a reused Source rewound with Reseed is
// indistinguishable from a fresh NewScoped one — same uniform and normal
// draws — even when the previous scope left a cached Box–Muller spare
// behind (a stale spare would shift every later normal draw).
func TestReseedEqualsNewScoped(t *testing.T) {
	var reused Source
	for scope := uint64(0); scope < 200; scope++ {
		reused.Reseed(99, scope)
		fresh := NewScoped(99, scope)
		if reused != *fresh {
			t.Fatalf("scope %d: reseeded state %+v, fresh %+v", scope, reused, *fresh)
		}
		for i := 0; i < 8; i++ {
			if a, b := reused.Normal(3, 2), fresh.Normal(3, 2); a != b {
				t.Fatalf("scope %d normal draw %d: %v vs %v", scope, i, a, b)
			}
			if a, b := reused.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("scope %d draw %d: %d vs %d", scope, i, a, b)
			}
		}
		// Leave a spare behind on odd scopes: one Normal call caches the
		// pair's second variate.
		if scope%2 == 1 {
			reused.Normal(0, 1)
			if !reused.hasSpare {
				t.Fatal("expected a cached spare after an odd number of Normal calls")
			}
		}
	}
}

// checkUniformsTo fills n values with UniformsTo(hi) on one copy of src
// and draws n UniformTo(hi) values on another: the values must match bit
// for bit, both copies must then give the same next Uint64, and a
// following Normal — cached spare or fresh pair — must be unchanged.
func checkUniformsTo(t *testing.T, src Source, n int, hi float64) {
	t.Helper()
	batch, one := src, src
	xs := make([]float64, n)
	batch.UniformsTo(xs, hi)
	for i, x := range xs {
		if want := one.UniformTo(hi); math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("n %d hi %v: value %d is %v, UniformTo gives %v", n, hi, i, x, want)
		}
	}
	if a, b := batch.Normal(1, 2), one.Normal(1, 2); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("n %d hi %v: Normal after the batch %v, after UniformTo %v", n, hi, a, b)
	}
	if a, b := batch.Uint64(), one.Uint64(); a != b {
		t.Fatalf("n %d hi %v: next Uint64 %#x, after UniformTo %#x", n, hi, a, b)
	}
}

// TestUniformsToMatchesUniformTo: UniformsTo is n UniformTo calls for
// every batch width up to one past DrawLanes' widest, on bounds that
// include 0 and a subnormal, with and without a cached normal spare.
func TestUniformsToMatchesUniformTo(t *testing.T) {
	his := []float64{0, math.SmallestNonzeroFloat64, 1, 3.5e-9, 100 * New(17).Float64()}
	for n := 0; n <= 33; n++ {
		for i, hi := range his {
			src := NewScoped(uint64(n), uint64(i))
			checkUniformsTo(t, *src, n, hi)
			src.Normal(0, 1) // leaves a spare
			checkUniformsTo(t, *src, n, hi)
		}
	}
}

func FuzzUniformsTo(f *testing.F) {
	f.Add(uint64(1), uint8(16), 1.0, false)
	f.Add(uint64(2), uint8(0), 0.0, true)
	f.Add(uint64(3), uint8(33), math.SmallestNonzeroFloat64, true)
	f.Add(uint64(4), uint8(9), 0.25, false)
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, hi float64, spare bool) {
		src := New(seed)
		if spare {
			src.Normal(0, 1)
		}
		checkUniformsTo(t, *src, int(n%34), hi)
	})
}
