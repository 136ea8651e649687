package recvec

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/skg"
)

var paperSeed = skg.Seed{A: 0.5, B: 0.2, C: 0.2, D: 0.1} // Figure 3 seed

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestPaperExampleRecVec reproduces Section 4.2: for u=2, |V|=2^3 and the
// Figure 3 seed, RecVec = [0.05, 0.07, 0.105, 0.147].
func TestPaperExampleRecVec(t *testing.T) {
	v := New(paperSeed, 2, 3)
	want := []float64{0.05, 0.07, 0.105, 0.147}
	for x, w := range want {
		if !approxEq(v.At(x), w, 1e-12) {
			t.Fatalf("RecVec[%d] = %v, want %v", x, v.At(x), w)
		}
	}
	if !approxEq(v.RowProb(), 0.147, 1e-12) {
		t.Fatalf("RowProb = %v, want 0.147", v.RowProb())
	}
}

// TestPaperExampleDetermine reproduces the worked example of Figure 5:
// u=2, x=0.133 resolves to destination 6 via k=2 then k=1.
func TestPaperExampleDetermine(t *testing.T) {
	v := New(paperSeed, 2, 3)
	if got := v.Determine(0.133); got != 6 {
		t.Fatalf("Determine(0.133) = %d, want 6", got)
	}
}

// TestLemma2MatchesDefinition2 validates the O(levels) closed-form build
// against direct summation for a spread of seeds, vertices and sizes.
func TestLemma2MatchesDefinition2(t *testing.T) {
	seeds := []skg.Seed{paperSeed, skg.Graph500Seed, skg.UniformSeed, {A: 0.7, B: 0.1, C: 0.15, D: 0.05}}
	for _, k := range seeds {
		for _, levels := range []int{1, 2, 5, 9} {
			n := int64(1) << uint(levels)
			for u := int64(0); u < n; u += 1 + n/7 {
				fast := New(k, u, levels)
				ref := NewRef(k, u, levels)
				for x := 0; x <= levels; x++ {
					if !approxEq(fast.At(x), ref.At(x), 1e-12) {
						t.Fatalf("seed %+v levels %d u %d: Lemma2 f[%d]=%v, Def2 %v",
							k, levels, u, x, fast.At(x), ref.At(x))
					}
				}
			}
		}
	}
}

// TestLemma3Sigma: the precomputed ratios equal K_{u[k],1}/K_{u[k],0}.
func TestLemma3Sigma(t *testing.T) {
	k := paperSeed
	const levels = 8
	for _, u := range []int64{0, 1, 2, 37, 255} {
		v := New(k, u, levels)
		for b := 0; b < levels; b++ {
			srcBit := (uint64(u) >> uint(b)) & 1
			want := k.At(srcBit, 1) / k.At(srcBit, 0)
			if !approxEq(v.Sigma(b), want, 1e-12) {
				t.Fatalf("u=%d sigma[%d]=%v, want %v", u, b, v.Sigma(b), want)
			}
		}
	}
}

// TestLemma4TranslationalSymmetry checks F_u(R+r) = F_u(R) + σ·F_u(r)
// on the exact CDF vector for all admissible (k, r).
func TestLemma4TranslationalSymmetry(t *testing.T) {
	k := skg.Graph500Seed
	const levels = 7
	for _, u := range []int64{0, 3, 42, 100} {
		c := NewCDF(k, u, levels)
		F := func(r int64) float64 {
			if r == 0 {
				return 0
			}
			return c.cum[r-1]
		}
		for kk := 0; kk < levels; kk++ {
			R := int64(1) << uint(kk)
			srcBit := (uint64(u) >> uint(kk)) & 1
			sigma := k.At(srcBit, 1) / k.At(srcBit, 0)
			for r := int64(0); r < R; r++ {
				lhs := F(R + r)
				rhs := F(R) + sigma*F(r)
				if !approxEq(lhs, rhs, 1e-12) {
					t.Fatalf("u=%d k=%d r=%d: F(R+r)=%v, F(R)+σF(r)=%v", u, kk, r, lhs, rhs)
				}
			}
		}
	}
}

// TestDetermineMatchesCDFInverse: for any random draw, the recursive
// vector resolves exactly the destination the naive CDF inversion does.
func TestDetermineMatchesCDFInverse(t *testing.T) {
	for _, k := range []skg.Seed{paperSeed, skg.Graph500Seed} {
		const levels = 10
		for _, u := range []int64{0, 5, 513, 1023} {
			v := New(k, u, levels)
			c := NewCDF(k, u, levels)
			src := rng.New(uint64(u) + 99)
			for i := 0; i < 5000; i++ {
				x := src.UniformTo(v.RowProb())
				got := v.Determine(x)
				want := c.DetermineBinary(x)
				if got != want {
					// Destinations whose CDF values collide within float64
					// noise may differ at the exact boundary; require the
					// CDF positions to genuinely differ.
					lo, hi := got, want
					if lo > hi {
						lo, hi = hi, lo
					}
					if math.Abs(c.cum[lo]-c.cum[hi]) > 1e-12 {
						t.Fatalf("seed %+v u=%d x=%v: recvec %d, cdf %d", k, u, x, got, want)
					}
				}
			}
		}
	}
}

func TestCDFLinearEqualsBinary(t *testing.T) {
	c := NewCDF(skg.Graph500Seed, 77, 9)
	src := rng.New(4)
	for i := 0; i < 2000; i++ {
		x := src.UniformTo(c.Total())
		if a, b := c.DetermineLinear(x), c.DetermineBinary(x); a != b {
			t.Fatalf("linear %d != binary %d at x=%v", a, b, x)
		}
	}
}

// chiSquare computes Pearson's statistic of observed counts against
// expected probabilities (conditioned on the row).
func chiSquare(obs []int64, probs []float64, total float64, n int64) float64 {
	var stat float64
	for i, o := range obs {
		e := float64(n) * probs[i] / total
		if e < 1e-9 {
			continue
		}
		d := float64(o) - e
		stat += d * d / e
	}
	return stat
}

// TestDetermineDistribution: generated destinations follow K_{u,v}/P_{u→}.
func TestDetermineDistribution(t *testing.T) {
	k := skg.Graph500Seed
	const levels = 6
	n := int64(1) << levels
	u := int64(21)
	v := New(k, u, levels)
	probs := make([]float64, n)
	for dst := int64(0); dst < n; dst++ {
		probs[dst] = skg.EdgeProb(k, u, dst, levels)
	}
	src := rng.New(7)
	const draws = 400000
	obs := make([]int64, n)
	for i := 0; i < draws; i++ {
		obs[v.Determine(src.UniformTo(v.RowProb()))]++
	}
	stat := chiSquare(obs, probs, v.RowProb(), draws)
	// 63 degrees of freedom; 99.9th percentile ≈ 106.
	if stat > 120 {
		t.Fatalf("chi-square %v too large for 63 dof", stat)
	}
}

// TestVectorMonotone: property — RecVec is non-decreasing and tops out
// at Lemma 1's row probability, for random vertices.
func TestVectorMonotone(t *testing.T) {
	k := skg.Graph500Seed
	f := func(u uint32) bool {
		const levels = 32
		v := New(k, int64(u), levels)
		for x := 0; x < levels; x++ {
			if v.At(x+1) < v.At(x) {
				return false
			}
		}
		return approxEq(v.RowProb(), skg.RowProb(k, int64(u), levels), 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDetermineInRange: property — any draw maps into [0, |V|).
func TestDetermineInRange(t *testing.T) {
	v := New(skg.Graph500Seed, 123456789, 36)
	src := rng.New(17)
	for i := 0; i < 50000; i++ {
		d := v.Determine(src.UniformTo(v.RowProb()))
		if d < 0 || d >= 1<<36 {
			t.Fatalf("destination %d out of range", d)
		}
	}
}

// TestExpectedOnesEmpirical ties Determine to the Lemma 5 analysis: the
// mean popcount of destinations approaches (β+δ)·levels.
func TestExpectedOnesEmpirical(t *testing.T) {
	k := skg.Graph500Seed
	const levels = 24
	src := rng.New(23)
	var totalBits, draws int64
	// Edge sources are distributed by row mass P_{u→}, under which each
	// source bit is independently 1 with probability γ+δ; draw u that
	// way, then a destination from u's vector.
	for i := 0; i < 20000; i++ {
		var u int64
		for b := 0; b < levels; b++ {
			if src.Float64() < k.C+k.D {
				u |= 1 << uint(b)
			}
		}
		v := New(k, u, levels)
		d := v.Determine(src.UniformTo(v.RowProb()))
		totalBits += int64(popcount(d))
		draws++
	}
	mean := float64(totalBits) / float64(draws)
	want := skg.ExpectedOnesFraction(k) * levels // 0.24*24 = 5.76
	if math.Abs(mean-want) > 0.15 {
		t.Fatalf("mean destination popcount %v, want ≈ %v", mean, want)
	}
}

func popcount(v int64) int {
	c := 0
	for ; v != 0; v &= v - 1 {
		c++
	}
	return c
}

// TestNoisyVectorAgainstDirectSum validates Lemma 8's recurrence build
// against brute-force summation over the actual noisy matrices.
func TestNoisyVectorAgainstDirectSum(t *testing.T) {
	const levels = 7
	src := rng.New(31)
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(1) << levels
	for _, u := range []int64{0, 1, 64, 127} {
		v := NewNoisy(ns, u, levels)
		var sum float64
		next := int64(1)
		x := 0
		for dst := int64(0); dst < n; dst++ {
			sum += ns.EdgeProbNoisy(u, dst, levels)
			if dst == next-1 {
				if !approxEq(v.At(x), sum, 1e-12) {
					t.Fatalf("u=%d f[%d]=%v, direct %v", u, x, v.At(x), sum)
				}
				x++
				next <<= 1
			}
		}
		if !approxEq(v.RowProb(), ns.RowProb(u, levels), 1e-12) {
			t.Fatalf("u=%d RowProb %v, Lemma7 %v", u, v.RowProb(), ns.RowProb(u, levels))
		}
	}
}

// TestNoisyZeroEqualsPlain: NSKG with N=0 builds the identical vector.
func TestNoisyZeroEqualsPlain(t *testing.T) {
	const levels = 12
	src := rng.New(37)
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int64{0, 77, 4095} {
		a := NewNoisy(ns, u, levels)
		b := New(skg.Graph500Seed, u, levels)
		for x := 0; x <= levels; x++ {
			if !approxEq(a.At(x), b.At(x), 1e-15) {
				t.Fatalf("u=%d f[%d]: noisy %v, plain %v", u, x, a.At(x), b.At(x))
			}
		}
	}
}

// TestNoisyDetermineDistribution: destinations under noise follow the
// noisy edge probabilities.
func TestNoisyDetermineDistribution(t *testing.T) {
	const levels = 6
	src := rng.New(41)
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, src)
	if err != nil {
		t.Fatal(err)
	}
	u := int64(13)
	v := NewNoisy(ns, u, levels)
	n := int64(1) << levels
	probs := make([]float64, n)
	for dst := int64(0); dst < n; dst++ {
		probs[dst] = ns.EdgeProbNoisy(u, dst, levels)
	}
	const draws = 300000
	obs := make([]int64, n)
	for i := 0; i < draws; i++ {
		obs[v.Determine(src.UniformTo(v.RowProb()))]++
	}
	if stat := chiSquare(obs, probs, v.RowProb(), draws); stat > 120 {
		t.Fatalf("chi-square %v too large for 63 dof", stat)
	}
}

// TestBigVectorMatchesFloat64: at modest levels, both backends agree on
// vector entries and destination mapping.
func TestBigVectorMatchesFloat64(t *testing.T) {
	k := skg.Graph500Seed
	const levels = 16
	u := int64(54321)
	fv := New(k, u, levels)
	bv := NewBig(k, u, levels, 0)
	for x := 0; x <= levels; x++ {
		if !approxEq(fv.At(x), bv.At(x), 1e-12) {
			t.Fatalf("f[%d]: float %v, big %v", x, fv.At(x), bv.At(x))
		}
	}
	src := rng.New(43)
	for i := 0; i < 3000; i++ {
		x := src.UniformTo(fv.RowProb())
		if a, b := fv.Determine(x), bv.Determine(x); a != b {
			t.Fatalf("x=%v: float %d, big %d", x, a, b)
		}
	}
}

// TestBigVectorHighScale: the big backend stays self-consistent at
// trillion scale (levels 40) where float64 entries underflow relative
// precision: entries remain monotone and determinations in range.
func TestBigVectorHighScale(t *testing.T) {
	k := skg.Graph500Seed
	const levels = 40
	bv := NewBig(k, (1<<40)-12345, levels, 0)
	for x := 0; x < levels; x++ {
		if bv.At(x+1) < bv.At(x) {
			t.Fatalf("big vector not monotone at %d", x)
		}
	}
	src := rng.New(47)
	for i := 0; i < 200; i++ {
		d := bv.Determine(src.UniformTo(bv.RowProb()))
		if d < 0 || d >= 1<<levels {
			t.Fatalf("destination %d out of range", d)
		}
	}
}

func TestNewNoisyPanicsOnShortNoise(t *testing.T) {
	src := rng.New(59)
	ns, _ := skg.NewNoise(skg.Graph500Seed, 4, 0.1, src)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNoisy(ns, 0, 8)
}

func TestNewRefPanicsOnHugeLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRef(skg.Graph500Seed, 0, 30)
}

// BenchmarkBuildVector times one vector build: build=new allocates it,
// as New does; build=reset refills one vector, as a scope loop does per
// row. Levels are bench/'s sparse graph (18) and a paper-scale one (36).
func BenchmarkBuildVector(b *testing.B) {
	k := skg.Graph500Seed
	for _, levels := range []int{18, 36} {
		mask := int64(1)<<uint(levels) - 1
		b.Run(fmt.Sprintf("levels=%d/build=new", levels), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				New(k, int64(i)&mask, levels)
			}
		})
		b.Run(fmt.Sprintf("levels=%d/build=reset", levels), func(b *testing.B) {
			var v Vector
			for i := 0; i < b.N; i++ {
				v.Reset(k, int64(i)&mask, levels)
			}
		})
	}
}

// benchVector is the vector both Determine benchmarks descend: 36
// levels is a paper-scale graph, 18 about what bench/ generates.
func benchVector(levels int) *Vector {
	return New(skg.Graph500Seed, 987654321&(1<<uint(levels)-1), levels)
}

func BenchmarkDetermine(b *testing.B) {
	for _, levels := range []int{18, 36} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			v := benchVector(levels)
			src := rng.New(1)
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += v.Determine(src.UniformTo(v.RowProb()))
			}
			_ = sink
		})
	}
}

// benchSink keeps the benchmarks' destinations live.
var benchSink int64

// BenchmarkDetermineBatch reports ns per draw, not per pass, for every
// kernel of the wide entry point at every pass width: kernel=go is the
// Go kernel (a determineBatch pass per four lanes), kernel=avx2 the
// VDIVPD ones (lanes=8 the two-chain pass, lanes=16 the four-chain one,
// lanes=32 a four-chain pass twice) and kernel=evex the certified pass
// (lanes=32 only), each skipped where the CPU or the build has none.
// Levels are bench/'s dense (13) and sparse (18) graphs, a paper-scale
// graph (36) and the most avs admits (47). draws=pool descends a fixed
// pool of draws, the kernel alone; draws=rng draws every value first, as
// DrawLanes does, and reads against BenchmarkDetermine line for line.
func BenchmarkDetermineBatch(b *testing.B) {
	kernels := []struct {
		name      string
		available bool
		widths    []int
		determine func(*Vector, *[WideLanes]float64, *[WideLanes]int64, int)
	}{
		{"go", true, []int{8, 16, WideLanes}, (*Vector).determineWideGo},
		{"avx2", hasAVX2, []int{8, 16, WideLanes}, (*Vector).determineWideAVX2},
		{"evex", hasEVEX, []int{WideLanes}, (*Vector).determineWide},
	}
	for _, k := range kernels {
		for _, width := range k.widths {
			for _, levels := range []int{13, 18, 36, 47} {
				for _, draws := range []string{"pool", "rng"} {
					fromPool := draws == "pool"
					b.Run(fmt.Sprintf("kernel=%s/lanes=%d/levels=%d/draws=%s", k.name, width, levels, draws), func(b *testing.B) {
						if !k.available {
							b.Skip("no such kernel on this CPU or in this build")
						}
						v := benchVector(levels)
						src := rng.New(1)
						pool := make([]float64, 4096+WideLanes)
						for i := range pool {
							pool[i] = src.UniformTo(v.RowProb())
						}
						var xs [WideLanes]float64
						var out [WideLanes]int64
						b.ResetTimer()
						for i := 0; i < b.N; i += width {
							in := (*[WideLanes]float64)(pool[i%4096:])
							if !fromPool {
								src.UniformsTo(xs[:width], v.RowProb())
								in = &xs
							}
							k.determine(v, in, &out, width)
							benchSink += out[0] + out[width-1]
						}
					})
				}
			}
		}
	}
}

// BenchmarkDrawLanes times one DrawLanes call at 18 levels (bench/'s
// sparse graph), draws included, for every room a scope loop can pass:
// room=32 is a full batch; rooms 1–8 are the calls the two-chain pass
// serves, rooms 9–16 the four-chain one and rooms 17–32 the certified
// pass (two VDIVPD passes where the CPU lacks it), each costing one pass
// of its kernel whatever the room. It reports ns per call, and ns per
// kept draw beside BenchmarkDetermine's.
func BenchmarkDrawLanes(b *testing.B) {
	v := benchVector(18)
	for room := int64(1); room <= WideLanes; room++ {
		b.Run(fmt.Sprintf("room=%d", room), func(b *testing.B) {
			src := rng.New(1)
			var out [WideLanes]int64
			for i := 0; i < b.N; i++ {
				v.DrawLanes(src, room, &out)
				benchSink += out[0]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*room), "ns/draw")
		})
	}
}

func BenchmarkDetermineBig(b *testing.B) {
	v := NewBig(skg.Graph500Seed, 987654321, 36, 0)
	src := rng.New(1)
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += v.Determine(src.UniformTo(v.RowProb()))
	}
	_ = sink
}
