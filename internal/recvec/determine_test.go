package recvec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/skg"
)

// determineBinarySearch is Determine as it was before the one-pass scan:
// a fresh binary search per recursion step, clamped below the previous
// index. Preserved here as the oracle the scan must match bit for bit.
func determineBinarySearch(v *Vector, x float64) int64 {
	var dst int64
	prev := v.levels
	for x >= v.f[0] && x > 0 {
		lo, hi := 0, v.levels
		for lo < hi {
			mid := (lo + hi) / 2
			if v.f[mid] <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		k := lo - 1
		if k >= prev {
			k = prev - 1
			if k < 0 {
				break
			}
		}
		prev = k
		dst |= 1 << uint(k)
		x = (x - v.f[k]) / v.sigma[k]
	}
	return dst
}

// fuzzSeed turns three fuzzed numbers into a valid seed matrix; zeroAt
// in [0, 4) zeroes one entry before normalising (rows or columns of a
// degenerate seed give f[k] = 0 and σ = +Inf levels).
func fuzzSeed(a, b, c float64, zeroAt uint8) (skg.Seed, bool) {
	w := [4]float64{math.Abs(a), math.Abs(b), math.Abs(c), 1}
	if zeroAt < 4 {
		w[zeroAt] = 0
	}
	sum := w[0] + w[1] + w[2] + w[3]
	if !(sum > 0) || math.IsInf(sum, 0) {
		return skg.Seed{}, false
	}
	k := skg.Seed{A: w[0] / sum, B: w[1] / sum, C: w[2] / sum}
	k.D = 1 - k.A - k.B - k.C
	if k.D < 0 {
		k.D = 0
	}
	return k, k.Validate() == nil
}

// checkDetermine compares the scan with the oracle on xs and on the
// values around them that historically broke descents: every boundary
// f[k] and its float neighbours, 0, the largest value below the total,
// the total itself and subnormals. Then checkWide puts the probes
// through both wide kernels, every probe through every lane.
func checkDetermine(t *testing.T, v *Vector, xs ...float64) {
	t.Helper()
	total := v.RowProb()
	probes := []float64{0, math.SmallestNonzeroFloat64, 1e-310, math.Nextafter(total, 0), total}
	probes = append(probes, xs...)
	for k := 0; k <= v.levels; k++ {
		probes = append(probes, v.f[k], math.Nextafter(v.f[k], 0), math.Nextafter(v.f[k], 2))
	}
	probes = slices.DeleteFunc(probes, func(x float64) bool { return math.IsNaN(x) || x < 0 })
	for _, x := range probes {
		got, want := v.Determine(x), determineBinarySearch(v, x)
		if got != want {
			t.Fatalf("levels %d u %d x %v: Determine %d, binary search %d (f %v)", v.levels, v.u, x, got, want, v.f)
		}
		if viaOpt := v.DetermineOpt(x, nil, Production()); viaOpt != got {
			t.Fatalf("DetermineOpt(Production) %d != Determine %d", viaOpt, got)
		}
	}
	checkWide(t, v, probes)
}

// wideKernels are the two implementations of the wide entry point:
// whatever determineWide dispatches to on this machine and build, and the
// Go fallback, called explicitly, whose halves are DetermineBatch. Where
// the build has no AVX2 kernel they coincide.
var wideKernels = []struct {
	name      string
	determine func(*Vector, *[WideLanes]float64, *[WideLanes]int64)
}{
	{"determineWide", (*Vector).determineWide},
	{"determineWideGo", (*Vector).determineWideGo},
}

// checkWide puts every cyclic window of WideLanes consecutive xs through
// both wide kernels, which must agree with Determine lane for lane; the
// windows wrap around, so every x passes through every lane.
func checkWide(t *testing.T, v *Vector, xs []float64) {
	t.Helper()
	for i := range xs {
		var window [WideLanes]float64
		var want [WideLanes]int64
		for l := range window {
			window[l] = xs[(i+l)%len(xs)]
			want[l] = v.Determine(window[l])
		}
		for _, k := range wideKernels {
			var got [WideLanes]int64
			k.determine(v, &window, &got)
			if got != want {
				t.Fatalf("levels %d u %d xs %v: %s %v, Determine %v (f %v)", v.levels, v.u, window, k.name, got, want, v.f)
			}
		}
	}
}

func FuzzDetermine(f *testing.F) {
	f.Add(0.57, 0.19, 0.19, uint8(9), uint8(18), uint64(12345), 0.37)
	f.Add(0.25, 0.25, 0.25, uint8(9), uint8(4), uint64(3), 0.999)
	f.Add(0.9, 0.05, 0.04, uint8(1), uint8(40), uint64(1)<<39, 0.5)    // β = 0
	f.Add(0.5, 0.2, 0.2, uint8(0), uint8(12), uint64(0xABC), 1e-300)   // α = 0
	f.Add(0.3, 0.3, 0.3, uint8(2), uint8(1), uint64(1), 0.0)           // γ = 0, one level
	f.Add(0.4, 0.3, 0.2, uint8(0), uint8(0), uint64(0), 0.5)           // α = 0 at the top (only) level
	f.Add(0.4, 0.3, 0.2, uint8(2), uint8(1), uint64(3), 0.25)          // γ = 0 at the top of two levels
	f.Add(0.4, 0.3, 0.2, uint8(0), uint8(Lanes-2), uint64(3), 0.75)    // α = 0 at the top of Lanes−1 levels
	f.Add(0.57, 0.19, 0.19, uint8(9), uint8(46), uint64(1)<<46-1, 0.9) // the most levels avs admits
	f.Fuzz(func(t *testing.T, a, b, c float64, zeroAt, levels uint8, u uint64, frac float64) {
		k, ok := fuzzSeed(a, b, c, zeroAt)
		if !ok {
			t.Skip()
		}
		lv := int(levels)%maxLevels + 1
		src := int64(u & (1<<uint(lv) - 1))
		v := New(k, src, lv)
		checkDetermine(t, v, math.Abs(frac)*v.RowProb())
	})
}

// maxLevels is the most levels a generator admits (avs.Config.Validate,
// and erv's 2⁴⁷-vertex ranges); the oracle tests cover 1 to maxLevels.
const maxLevels = 47

// TestDetermineMatchesBinarySearchRandom is the fuzz property on a fixed
// random sweep, so plain `go test` exercises it too: random seeds (one
// in four with a zero entry), every level count, noisy and plain.
func TestDetermineMatchesBinarySearchRandom(t *testing.T) {
	src := rng.New(2024)
	for i := 0; i < 10*maxLevels; i++ {
		k, ok := fuzzSeed(src.Float64(), src.Float64(), src.Float64(), uint8(src.Int63n(16)))
		if !ok {
			continue
		}
		lv := i%maxLevels + 1
		u := src.Int63n(1 << uint(lv))
		v := New(k, u, lv)
		if noise := skg.MaxNoise(k); i%2 == 1 && noise > 0 {
			ns, err := skg.NewNoise(k, lv, noise/2, src)
			if err != nil {
				t.Fatal(err)
			}
			v = NewNoisy(ns, u, lv)
		}
		var xs [50]float64 // one pass over the boundary probes per vector
		for j := range xs {
			xs[j] = src.UniformTo(v.RowProb())
		}
		checkDetermine(t, v, xs[:]...)
	}
}

// TestDetermineBatchOutsideDomain: the bit-pattern predicates of both
// wide kernels agree with Determine's float compares on what a descent
// can produce or be handed beyond [0, total) — ±0, negatives, ±Inf and
// both signs of NaN, from σ = 0 levels (x/0, 0/0) and σ = +Inf levels —
// and on a seed entry given as −0, whose f[k] = −0 must compare as +0.
func TestDetermineBatchOutsideDomain(t *testing.T) {
	negZero := math.Copysign(0, -1)
	negNaN := math.Copysign(math.NaN(), -1)
	for _, k := range []skg.Seed{
		skg.Graph500Seed,
		{A: 0.6, B: 0, C: 0.3, D: 0.1},       // σ = 0 where u's bit is 0
		{A: 0, B: 0.6, C: 0.3, D: 0.1},       // f[k] = 0, σ = +Inf
		{A: negZero, B: 0.6, C: 0.3, D: 0.1}, // f[k] = −0
	} {
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, u := range []int64{0, 0b1010, 0b1111} {
			v := New(k, u, 4)
			xs := []float64{negZero, -1, math.Inf(-1), math.NaN(), math.Inf(1), 2, 0, negNaN}
			for x := 0; x <= 4; x++ {
				xs = append(xs, v.f[x], math.Nextafter(v.f[x], 2))
			}
			checkWide(t, v, xs)
		}
	}
}

// TestResetMatchesNew: a vector reused across sources, level counts and
// models holds exactly what a fresh one holds, and stops allocating
// once it has been as long.
func TestResetMatchesNew(t *testing.T) {
	src := rng.New(7)
	ns, err := skg.NewNoise(skg.Graph500Seed, 40, 0.05, src)
	if err != nil {
		t.Fatal(err)
	}
	var v Vector
	same := func(want *Vector) {
		t.Helper()
		if v.Levels() != want.Levels() || v.Source() != want.Source() {
			t.Fatalf("levels/source %d/%d, want %d/%d", v.Levels(), v.Source(), want.Levels(), want.Source())
		}
		for x := 0; x <= want.Levels(); x++ {
			if math.Float64bits(v.At(x)) != math.Float64bits(want.At(x)) {
				t.Fatalf("f[%d] = %v, want %v", x, v.At(x), want.At(x))
			}
		}
		for k := 0; k < want.Levels(); k++ {
			if math.Float64bits(v.Sigma(k)) != math.Float64bits(want.Sigma(k)) {
				t.Fatalf("sigma[%d] = %v, want %v", k, v.Sigma(k), want.Sigma(k))
			}
		}
	}
	for _, lv := range []int{40, 3, 18, 1, 40} {
		u := src.Int63n(1 << uint(lv))
		v.Reset(skg.Graph500Seed, u, lv)
		same(New(skg.Graph500Seed, u, lv))
		v.ResetNoisy(ns, u, lv)
		same(NewNoisy(ns, u, lv))
		zero := skg.Seed{A: 0.6, B: 0, C: 0.3, D: 0.1}
		v.Reset(zero, u, lv)
		same(New(zero, u, lv))
	}
	if n := testing.AllocsPerRun(100, func() { v.Reset(skg.Graph500Seed, 5, 40) }); n != 0 {
		t.Fatalf("Reset on a warmed vector allocates %v times", n)
	}
}
