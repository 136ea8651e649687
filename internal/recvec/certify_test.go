package recvec

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/skg"
)

// certifiedQuotient is one lane of one level of determine32EVEX in Go:
// t = x − f, q1 = q0 + (t − σ·q0)·y with q0 = t·y, the quotient the
// pass keeps, and q2 = q1 + (t − σ·q1)·y, Markstein's check of it, each
// FMA one rounding as VFMADD231PD and VFNMADD231PD round.
func certifiedQuotient(x, f, sigma, y float64) (t, q1, q2 float64) {
	t = x - f
	q0 := t * y
	q1 = math.FMA(math.FMA(-sigma, q0, t), y, q0)
	q2 = math.FMA(math.FMA(-sigma, q1, t), y, q1)
	return t, q1, q2
}

// checkCertifiedQuotient holds one (x, f, σ) to docs/MATH.md "Certified
// quotient": wherever certifiable(f, σ) admits the level, a q1 that is
// not NaN and equals q2 bit for bit (the pass's certificate) is t/σ,
// and where no step can overflow (|t| ≤ 2⁷⁶⁷) q2 is t/σ whatever q1 is.
// A certificate that passes on a wrong quotient must come from a level
// the guard refuses.
func checkCertifiedQuotient(t *testing.T, x, f, sigma float64) {
	t.Helper()
	tt, q1, q2 := certifiedQuotient(x, f, sigma, 1/sigma)
	want := tt / sigma
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	guarded := certifiable(f, sigma)
	if !math.IsNaN(q1) && same(q1, q2) && !same(q1, want) && guarded {
		t.Fatalf("x %v f %v σ %v: t %v certified q1 = q2 = %v, t/σ = %v, and the guard admits the level", x, f, sigma, tt, q1, want)
	}
	if guarded && math.Abs(tt) <= 0x1p767 && !same(q2, want) {
		t.Fatalf("x %v f %v σ %v: t %v q2 = %v, t/σ = %v", x, f, sigma, tt, q2, want)
	}
	if guarded && tt != 0 && math.Abs(tt) < 0x1p-553 {
		t.Fatalf("x %v f %v σ %v: |t| = %v below 2⁻⁵⁵³ on an admitted level", x, f, sigma, tt)
	}
}

func FuzzCertifiedQuotient(f *testing.F) {
	// Real descent operands: every taken level of a few draws at 13, 18,
	// 36 and 47 levels of the Graph500 seed.
	for _, levels := range []int{13, 18, 36, 47} {
		v := New(skg.Graph500Seed, 987654321&(1<<uint(levels)-1), levels)
		src := rng.New(uint64(levels))
		for range 3 {
			x := src.UniformTo(v.RowProb())
			for k := levels - 1; k >= 0; k-- {
				if x >= v.f[k] && x > 0 {
					f.Add(x, v.f[k], v.sigma[k])
					x = (x - v.f[k]) / v.sigma[k]
				}
			}
		}
	}
	f.Add(0.5, 0.25, math.Inf(1))                           // σ = +Inf: refused
	f.Add(0.5, 0.0, math.Inf(1))                            // f = 0, σ = +Inf
	f.Add(0.3, 0.25, 0.0)                                   // σ = 0: refused
	f.Add(math.Nextafter(1e-310, 1), 1e-310, 0.3)           // subnormal t and f: refused
	f.Add(math.Nextafter(0x1p-500, 1), 0x1p-500, 0.3)       // the least t an admitted level gives
	f.Add(0.75, 0.25, 1.0)                                  // σ = 1
	f.Add(0.75, 0.25, math.Nextafter(1, 0))                 // σ just below a binade edge
	f.Add(0.75, 0.25, 0x1p-256)                             // σ at the guard's edges
	f.Add(0.75, 0.25, 0x1p256)                              //
	f.Add(0.75, 0.25, math.Nextafter(0x1p-256, 0))          // and just outside them
	f.Add(0.75, 0.25, math.Nextafter(0x1p256, math.Inf(1))) //
	f.Add(math.Inf(1), 0.25, 0.3)                           // x = +Inf: q1 is NaN
	f.Add(math.MaxFloat64, 0.25, 0x1p-256)                  // overflow
	f.Add(-0.5, 0.25, 3.0)                                  // an untaken lane
	f.Fuzz(func(t *testing.T, x, fk, sigma float64) {
		checkCertifiedQuotient(t, x, fk, sigma)
	})
}

// TestCertifiedQuotientRandom is the fuzz property on a fixed random
// sweep, so plain `go test` exercises it too: f and x from 2⁻⁵¹² to 2,
// σ across and just beyond the guard's 2⁻²⁵⁶ to 2²⁵⁶, the lanes the
// descent takes (x ≥ f), the ones it does not, and x a few ulps above f.
func TestCertifiedQuotientRandom(t *testing.T) {
	src := rng.New(36)
	binade := func(lo, hi int) float64 {
		return math.Ldexp(1+src.Float64(), lo+int(src.Int63n(int64(hi-lo))))
	}
	for range 400_000 {
		fk, sigma := binade(-512, 1), binade(-260, 260)
		var x float64
		switch src.Int63n(3) {
		case 0:
			x = fk + fk*binade(-60, 2)
		case 1:
			x = fk * src.Float64()
		default:
			x = fk + float64(src.Int63n(8)-3)*(math.Nextafter(fk, 2)-fk)
		}
		checkCertifiedQuotient(t, x, fk, sigma)
	}
}

// TestCertifiedPassFallsBack: where the CPU has the certified pass, a
// wide call on a vector outside its domain — a σ = +Inf level, an f[k]
// below 2⁻⁵⁰⁰ with every σ in range, a σ above 2²⁵⁶ with every f in
// range — and a pass with a +Inf or NaN lane each count one pass handed
// back to the VDIVPD kernels, and their destinations are Determine's.
// A vector inside the domain, on draws in [0, total), counts none.
func TestCertifiedPassFallsBack(t *testing.T) {
	if !hasEVEX {
		t.Skip("no certified pass on this CPU or in this build")
	}
	g500 := New(skg.Graph500Seed, 0b1011_0110_1101, 18)
	for _, c := range []struct {
		name string
		v    *Vector
		lane float64 // put into lane 5 of a batch of draws, if not 0
		want int64   // passes handed back
	}{
		{"σ=+Inf", New(skg.Seed{A: 0, B: 0.6, C: 0.3, D: 0.1}, 0b0110, 5), 0, 1},
		{"f<2⁻⁵⁰⁰", New(skg.Seed{A: 1e-5, B: 0.1, C: 0.45, D: 0.44999}, 0, 47), 0, 1},
		{"σ>2²⁵⁶", New(skg.Seed{A: 1e-80, B: 0.5, C: 0.25, D: 0.25}, 0, 1), 0, 1},
		{"x=+Inf", g500, math.Inf(1), 1},
		{"x=NaN", g500, math.NaN(), 1},
		{"in domain", g500, 0, 0},
	} {
		if c.name == "f<2⁻⁵⁰⁰" && !(c.v.f[0] < minCertF && c.v.sigma[0] <= maxCertSigma) ||
			c.name == "σ>2²⁵⁶" && !(c.v.f[0] >= minCertF && c.v.sigma[0] > maxCertSigma) {
			t.Fatalf("%s: f %v σ %v", c.name, c.v.f, c.v.sigma)
		}
		src := rng.New(9)
		var xs [WideLanes]float64
		src.UniformsTo(xs[:], c.v.RowProb())
		if c.lane != 0 {
			xs[5] = c.lane
		}
		before := fallbackPasses.Load()
		var out [WideLanes]int64
		c.v.determineWide(&xs, &out, WideLanes)
		if got := fallbackPasses.Load() - before; got != c.want {
			t.Errorf("%s: %d passes handed back, want %d", c.name, got, c.want)
		}
		for l, x := range xs {
			if want := c.v.Determine(x); out[l] != want {
				t.Errorf("%s lane %d: %d, Determine(%v) = %d", c.name, l, out[l], x, want)
			}
		}
	}
}
