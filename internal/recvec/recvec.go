// Package recvec implements the paper's primary contribution: the
// recursive vector model (Section 4).
//
// For a source vertex u of a 2^levels-vertex SKG/RMAT graph, the
// recursive vector RecVec[x] = F_u(2^x), x ∈ [0, levels], stores the
// cumulative probability mass of destinations 0..2^x−1 (Definition 2).
// The vector is built in O(levels) time via Lemma 2 (or its NSKG
// extension, Lemma 8) and a destination vertex is recovered from a single
// uniform random value by the recursive translation of Theorem 2 using
// scale symmetry (Lemma 3) and translational symmetry (Lemma 4).
//
// The package also contains:
//
//   - the naive CDF vector of Section 4.2 (O(|V|) space) with linear and
//     binary search, used as the exactness reference and for Table 2;
//   - a math/big.Float backend standing in for the paper's BigDecimal
//     RecVec (Section 5).
package recvec

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/skg"
)

// Vector is the recursive vector of one source vertex: levels+1 CDF
// values at power-of-two positions, plus the precomputed scale-symmetry
// ratios σ_k (Lemma 3). Values are float64; see BigVector for the
// high-precision backend.
type Vector struct {
	levels int
	u      int64
	// f[x] = F_u(2^x); non-decreasing, f[levels] = P_{u→}.
	f []float64
	// sigma[k] = (f[k+1]-f[k])/f[k], the Lemma 3 ratio of bit k.
	sigma []float64
	// recip[k] = RN(1/σ[k]), the certified pass's operand, filled by
	// the first pass wider than sixteen lanes after a build (fillRecip);
	// recipState says whether it is filled and the vector certifiable.
	recip      []float64
	recipState uint8
}

// recipState values. The zero value is recipStale, so a vector built by
// a struct literal or rebuilt by resize fills recip before its next
// certified pass.
const (
	recipStale = iota
	recipCertified
	recipOutside
)

// New builds the recursive vector of source vertex u via Lemma 2 in
// O(levels) time. Bit k of u (LSB = bit 0) selects the seed row used at
// destination-bit position k.
func New(k skg.Seed, u int64, levels int) *Vector {
	v := &Vector{}
	v.Reset(k, u, levels)
	return v
}

// NewNoisy builds the NSKG recursive vector RecVec′ (Lemma 8) for source
// vertex u. Kronecker level i (0 = MSB) of the noise applies to vertex
// bit position levels−1−i.
func NewNoisy(ns *skg.Noise, u int64, levels int) *Vector {
	v := &Vector{}
	v.ResetNoisy(ns, u, levels)
	return v
}

// resize points f and sigma at one backing array of 2·levels+1 values,
// reusing the current one when it is large enough.
func (v *Vector) resize(u int64, levels int) {
	v.levels, v.u, v.recipState = levels, u, recipStale
	n := 2*levels + 1
	buf := v.f[:0] // f heads the backing array, so its capacity is the array's
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	v.f, v.sigma = buf[:levels+1], buf[levels+1:n]
}

// Reset rebuilds v in place as New(k, u, levels) would build it — the
// same arithmetic in the same order, so every value is bit-identical —
// without allocating once v has held a vector of as many levels. It is
// Idea#1 one step further: not only one vector per scope, but one
// vector's storage per worker.
func (v *Vector) Reset(k skg.Seed, u int64, levels int) {
	v.resize(u, levels)
	// The row sum and the "destination bit is 0" fraction depend only on
	// the source bit, so both are computed once per call, not per level.
	var row, frac [2]float64
	for bit := uint64(0); bit < 2; bit++ {
		row[bit] = k.RowSum(bit)
		if row[bit] > 0 {
			frac[bit] = k.At(bit, 0) / row[bit]
		}
	}
	// f[levels] = P_{u→} (Lemma 1); walk down multiplying the
	// conditional "destination bit x is 0" factor of each position.
	p := 1.0
	for x := 0; x < levels; x++ {
		p *= row[(uint64(u)>>uint(x))&1]
	}
	f, sigma := v.f[:levels+1], v.sigma[:levels]
	f[levels] = p
	// The product walks down in a register and σ[x] is computed as soon
	// as f[x] is, so the levels' independent divisions overlap the serial
	// multiply chain rather than wait for its last link, f[0].
	for x := levels - 1; x >= 0; x-- {
		lo := p * frac[(uint64(u)>>uint(x))&1]
		f[x], sigma[x] = lo, sigmaOf(lo, p)
		p = lo
	}
}

// ResetNoisy is Reset for the NSKG model: it rebuilds v in place as
// NewNoisy(ns, u, levels) would build it.
func (v *Vector) ResetNoisy(ns *skg.Noise, u int64, levels int) {
	if ns.Levels() < levels {
		panic(fmt.Sprintf("recvec: noise has %d levels, need %d", ns.Levels(), levels))
	}
	v.resize(u, levels)
	p := 1.0
	for x := 0; x < levels; x++ {
		lev := ns.Level(levels - 1 - x)
		p *= lev.RowSum((uint64(u) >> uint(x)) & 1)
	}
	f, sigma := v.f[:levels+1], v.sigma[:levels]
	f[levels] = p
	for x := levels - 1; x >= 0; x-- {
		srcBit := (uint64(u) >> uint(x)) & 1
		lev := ns.Level(levels - 1 - x)
		row := lev.RowSum(srcBit)
		var frac float64
		if row > 0 {
			frac = lev.At(srcBit, 0) / row
		}
		lo := p * frac
		f[x], sigma[x] = lo, sigmaOf(lo, p)
		p = lo
	}
}

// NewRef builds the vector by direct Definition 2 summation of
// Proposition 1 probabilities in O(2^levels · levels) time. It exists so
// tests can validate the Lemma 2 closed form; levels is capped.
func NewRef(k skg.Seed, u int64, levels int) *Vector {
	if levels > 20 {
		panic("recvec: NewRef is exponential; levels capped at 20")
	}
	v := &Vector{levels: levels, u: u, f: make([]float64, levels+1), sigma: make([]float64, levels)}
	var sum float64
	next := int64(1) // 2^x boundary to record
	x := 0
	for dst := int64(0); dst < 1<<uint(levels); dst++ {
		sum += skg.EdgeProb(k, u, dst, levels)
		if dst == next-1 {
			v.f[x] = sum
			x++
			next <<= 1
		}
	}
	v.fillSigma()
	return v
}

func (v *Vector) fillSigma() {
	for k := range v.sigma {
		v.sigma[k] = sigmaOf(v.f[k], v.f[k+1])
	}
}

// sigmaOf is the Lemma 3 ratio σ = (hi − lo)/lo of a bit whose lower
// and upper boundaries are F(2^k) = lo and F(2^(k+1)) = hi, and +Inf
// when lo is not positive (the level can then only send x to 0).
func sigmaOf(lo, hi float64) float64 {
	if lo > 0 {
		return (hi - lo) / lo
	}
	return math.Inf(1)
}

// Levels returns log2|V|.
func (v *Vector) Levels() int { return v.levels }

// Source returns the source vertex the vector was built for.
func (v *Vector) Source() int64 { return v.u }

// At returns F_u(2^x).
func (v *Vector) At(x int) float64 { return v.f[x] }

// RowProb returns P_{u→} = F_u(|V|), the total probability mass of the
// scope. This is the upper bound of the uniform draw in Algorithm 4.
func (v *Vector) RowProb() float64 { return v.f[v.levels] }

// Sigma returns the Lemma 3 ratio σ_{u[k]} of bit position k.
func (v *Vector) Sigma(k int) float64 { return v.sigma[k] }

// Determine implements Theorem 2 / Algorithm 5: it maps a uniform random
// value x ∈ [0, RowProb()) to a destination vertex, recursing only on
// 1 bits (Idea#2) and translating a single random value in place
// (Idea#3). It serves callers that draw one destination at a time
// (erv's drawDst, teg, the experiments); the scope loops draw
// every destination through DrawLanes, which determines batches of
// draws to the same bits.
//
// The Theorem 2 search "largest k with f[k] ≤ x" is done as one downward
// scan shared by all recursion steps: selected indices strictly
// decrease and f is non-decreasing, so the next index is the first
// k below the previous one with f[k] ≤ x, and every level is compared
// at most once per edge. It selects exactly the indices a fresh binary
// search per step (clamped below the previous index) selects, and
// translates x with the same subtraction and division, so destinations
// are bit-identical to that formulation (fuzzed in determine_test.go).
// The quotient must stay RN((x − f[k])/σ[k]): a product by a stored 1/σ
// alone rounds differently on about one quotient in six and would change
// the generated graph. The certified pass (determine32EVEX) gets the
// same quotient from 1/σ and two FMA steps and proves it per lane.
func (v *Vector) Determine(x float64) int64 {
	f, sigma := v.f, v.sigma
	f0 := f[0]
	if !(x >= f0 && x > 0) {
		return 0
	}
	var dst int64
	bit := int64(1) << uint(len(sigma)) // shifted right once per level
	for k := len(sigma) - 1; k >= 0; k-- {
		bit >>= 1
		if fk := f[k]; x >= fk {
			dst |= bit
			// A zero f[k] has σ = +Inf and sends x to 0, ending the scan.
			x = (x - fk) / sigma[k]
			if !(x >= f0 && x > 0) {
				break
			}
		}
	}
	return dst
}

// lanes is how many draws determineBatch, the Go kernel, descends
// together: four independent scalar divide chains saturate the scalar
// divider (two gain nothing over Determine; eight in Go gain 5 %, as
// they spill — DESIGN.md §5.1). determineBatch writes its lanes out by
// hand, so the two change together. The Go wide kernel is two to eight
// such batches; callers see only WideLanes.
const lanes = 4

// WideLanes is the most draws one DrawLanes call determines: the
// certified pass's eight chains of four doubles. The VDIVPD kernels
// descend eight or sixteen lanes; four ymm divide chains keep the
// packed divider busy at about 32 cycles per level for sixteen lanes,
// and the certified pass, which computes the quotient on the FMA ports
// instead, does thirty-two in about as many (DESIGN.md §5.1 "Wide
// descent" and "Certified descent").
const WideLanes = 8 * lanes

// DrawLanes draws and determines the next batch of a scope's
// destinations: n = min(room, WideLanes) uniforms on [0, RowProb())
// from src, for room ≥ 0. It sets out[l] = Determine(x_l) for the l-th
// value drawn, to the bit, and returns n. A batch of n ≤ 8 descends the
// two-chain kernel's eight lanes, one of n ≤ 16 the four-chain kernel's
// sixteen and a larger one all WideLanes; lanes past n hold +0, which
// takes no level, so a short batch costs one pass of its kernel. A
// scope loop passes as room the number of draws it would make next
// whatever they hit, so a batch consumes src exactly as one Determine
// per draw would. The first call wider than sixteen after a build fills
// the vector's reciprocals, so one vector must not be drawn from by two
// goroutines at once (each scope loop owns its vector).
func (v *Vector) DrawLanes(src *rng.Source, room int64, out *[WideLanes]int64) int {
	var xs [WideLanes]float64
	n := int(min(room, WideLanes))
	src.UniformsTo(xs[:n], v.RowProb())
	v.determineWide(&xs, out, n)
	return n
}

// determineWide sets out[l] = Determine(xs[l]) to the bit for every lane
// of the pass n selects. Where the CPU has AVX2 and the build has
// assembly, n ≤ 16 runs the VDIVPD kernels (determineWideAVX2) and a
// larger n the certified pass, which falls back to them for the whole
// pass where it cannot certify every lane or the CPU lacks AVX-512VL and
// FMA; elsewhere determineWideGo runs. IEEE subtraction and division are
// correctly rounded whether issued as DIVSD or packed VDIVPD, the
// certified quotient is proved equal to them, and Go sets neither FTZ
// nor DAZ, so all give the same bits.
func (v *Vector) determineWide(xs *[WideLanes]float64, out *[WideLanes]int64, n int) {
	switch {
	case !hasAVX2:
		v.determineWideGo(xs, out, n)
	case n <= 16 || !hasEVEX || !v.determineCertified(xs, out):
		v.determineWideAVX2(xs, out, n)
	}
}

// determineWideAVX2 is determineWide on the VDIVPD kernels alone: one
// eight-lane pass for n ≤ 8, one sixteen-lane pass for n ≤ 16, and for
// a larger n a sixteen-lane pass and then an eight- or sixteen-lane one
// (a sixteen-lane pass costs about 1.6 of an eight-lane one, so short
// batches keep the narrow pass).
func (v *Vector) determineWideAVX2(xs *[WideLanes]float64, out *[WideLanes]int64, n int) {
	for l := 0; ; l += 16 {
		if n-l <= 8 {
			determine8AVX2(v.f, v.sigma, (*[8]float64)(xs[l:]), (*[8]int64)(out[l:]))
		} else {
			determine16AVX2(v.f, v.sigma, (*[16]float64)(xs[l:]), (*[16]int64)(out[l:]))
		}
		if n-l <= 16 {
			return
		}
	}
}

// fallbackPasses counts the certified passes that determineWide handed
// back to the VDIVPD kernels: a vector outside the certified domain, or
// a pass with a lane that failed the certificate. It is read by tests
// only; docs/MATH.md "Certified quotient" proves that no lane of a draw
// in [0, RowProb()) fails on a vector inside the domain.
var fallbackPasses atomic.Int64

// determineCertified runs the certified pass over all WideLanes lanes
// and reports whether it did; if not, out is garbage and the pass must
// be recomputed. recip is filled at the vector's first such pass.
func (v *Vector) determineCertified(xs *[WideLanes]float64, out *[WideLanes]int64) bool {
	if v.recipState == recipStale {
		v.fillRecip()
	}
	if v.recipState == recipCertified && determine32EVEX(v.f, v.sigma, v.recip, xs, out) {
		return true
	}
	fallbackPasses.Add(1)
	return false
}

// The certified domain (docs/MATH.md "Certified quotient"): every level
// has f[k] ≥ minCertF and σ[k] in [minCertSigma, maxCertSigma]. Then
// every lane's t = x − f[k] is 0 or at least 2⁻⁵⁵³ in magnitude, and no
// step of the certified quotient underflows.
const (
	minCertF     = 0x1p-500
	minCertSigma = 0x1p-256
	maxCertSigma = 0x1p256
)

// certifiable reports whether a level of boundary f and ratio sigma lies
// in the certified domain. It is false for σ = +Inf (f ≤ 0), σ = 0 and
// NaN.
func certifiable(f, sigma float64) bool {
	return f >= minCertF && sigma >= minCertSigma && sigma <= maxCertSigma
}

// fillRecip sets recip[k] = RN(1/σ[k]), one division per level, and
// decides once for the vector whether every level is certifiable.
func (v *Vector) fillRecip() {
	levels := len(v.sigma)
	if cap(v.recip) < levels {
		v.recip = make([]float64, levels)
	}
	v.recip = v.recip[:levels]
	v.recipState = recipCertified
	for k, s := range v.sigma {
		v.recip[k] = 1 / s
		if !certifiable(v.f[k], s) {
			v.recipState = recipOutside
		}
	}
}

// determineWideGo is determineWide in determineBatch passes, one per
// four lanes of what the AVX2 passes cover — 8, 16, 24 or 32 lanes as
// n needs: the fallback and the oracle the assembly kernels are tested
// against lane for lane.
func (v *Vector) determineWideGo(xs *[WideLanes]float64, out *[WideLanes]int64, n int) {
	width := max(8, (n+7)&^7)
	for l := 0; l < width; l += lanes {
		v.determineBatch((*[lanes]float64)(xs[l:]), (*[lanes]int64)(out[l:]))
	}
}

const (
	signBit = 1 << 63
	infBits = 0x7FF << 52 // math.Float64bits(math.Inf(1))
)

// determineBatch sets out[l] = Determine(xs[l]) for every lane, to the
// bit. Determine's serial compare-subtract-divide chain is latency- and
// mispredict-bound; the draws of one scope are independent, so the batch
// walks all levels once for all lanes, computes every lane's translated
// value unconditionally — the same subtraction and division — and keeps
// it by mask, not by branch. Determine takes level k exactly when
// x ≥ f[k] && x > 0 (its break test only skips levels that f's
// monotonicity already rules out), and on bit patterns that is
// f[k] ≤ x && 0 < x ≤ +Inf as unsigned integers: it holds for x = +Inf
// and fails for ±0, negatives and NaN, as the float test does. It needs
// f[k] ≥ 0 (sign cleared so a −0 seed entry compares as +0) and f
// non-decreasing, which a valid seed gives and skg.NewNoise keeps (it
// draws within skg.MaxNoise whatever its tolerance admitted).
func (v *Vector) determineBatch(xs *[lanes]float64, out *[lanes]int64) {
	sigma := v.sigma
	f := v.f[:len(sigma)]
	x0, x1 := math.Float64bits(xs[0]), math.Float64bits(xs[1])
	x2, x3 := math.Float64bits(xs[2]), math.Float64bits(xs[3])
	var d0, d1, d2, d3 uint64
	bit := uint64(1) << uint(len(sigma)) // shifted right once per level
	for k := len(sigma) - 1; k >= 0; k-- {
		bit >>= 1
		fk, sk := f[k], sigma[k]
		fb := math.Float64bits(fk) &^ signBit
		t0 := math.Float64bits((math.Float64frombits(x0) - fk) / sk)
		t1 := math.Float64bits((math.Float64frombits(x1) - fk) / sk)
		t2 := math.Float64bits((math.Float64frombits(x2) - fk) / sk)
		t3 := math.Float64bits((math.Float64frombits(x3) - fk) / sk)
		m0, m1, m2, m3 := takeMask(x0, fb), takeMask(x1, fb), takeMask(x2, fb), takeMask(x3, fb)
		x0 ^= (x0 ^ t0) & m0
		x1 ^= (x1 ^ t1) & m1
		x2 ^= (x2 ^ t2) & m2
		x3 ^= (x3 ^ t3) & m3
		d0 |= bit & m0
		d1 |= bit & m1
		d2 |= bit & m2
		d3 |= bit & m3
	}
	out[0], out[1], out[2], out[3] = int64(d0), int64(d1), int64(d2), int64(d3)
}

// takeMask returns all ones when fb ≤ x && 0 < x ≤ +Inf on bit
// patterns, else zero, from two borrows instead of two branches.
func takeMask(x, fb uint64) uint64 {
	_, below := bits.Sub64(x, fb, 0)           // 1 when x < fb
	_, positive := bits.Sub64(x-1, infBits, 0) // 1 when 0 < x ≤ +Inf
	return (below - 1) & -positive
}

// Options names the paper's three performance ideas of Section 4.3
// (plus Table 2's linear search). The generators draw only with
// Production(); the ablation variants, and the Figure 13 and Table 2
// runs that measure them, live in internal/experiments. No
// configuration carries Options: its last caller is the bench's
// per-layer probe (bench/layers.go), through DetermineOpt.
type Options struct {
	// ReuseVector (Idea#1): one vector per scope, not one per edge.
	ReuseVector bool
	// SparseRecursion (Idea#2): recurse only on the destination's 1 bits.
	SparseRecursion bool
	// SingleRandom (Idea#3): one uniform value per edge, translated.
	SingleRandom bool
	// LinearSearch switches the per-step search from binary to linear
	// (Table 2; orthogonal to the paper's three ideas).
	LinearSearch bool
}

// Production returns the options of the real TrillionG path. Its last
// caller is the bench's per-layer probe (bench/layers.go).
func Production() Options {
	return Options{ReuseVector: true, SparseRecursion: true, SingleRandom: true}
}

// DetermineOpt returns Determine(x).
//
// Deprecated: only Production() generates; it panics on anything else.
// The ablation variants live in internal/experiments. Call Determine.
// Its last caller is the bench's per-layer probe (bench/layers.go).
func (v *Vector) DetermineOpt(x float64, _ *rng.Source, o Options) int64 {
	if o != Production() {
		panic(fmt.Sprintf("recvec: DetermineOpt(%+v): only Production() generates", o))
	}
	return v.Determine(x)
}

// CDFVector is the naive Section 4.2 data structure: the full cumulative
// distribution F_u(r) for r ∈ [1, |V|], taking O(|V|) space. It is the
// exactness oracle for Determine and the subject of Table 2.
type CDFVector struct {
	levels int
	u      int64
	// cum[r] = F_u(r+1) = Σ_{v=0..r} P_{u→v}.
	cum []float64
}

// NewCDF builds the naive CDF vector by direct summation. levels is
// capped because the structure is exponential in it.
func NewCDF(k skg.Seed, u int64, levels int) *CDFVector {
	if levels > 24 {
		panic("recvec: NewCDF is O(2^levels) space; levels capped at 24")
	}
	n := int64(1) << uint(levels)
	c := &CDFVector{levels: levels, u: u, cum: make([]float64, n)}
	var sum float64
	for dst := int64(0); dst < n; dst++ {
		sum += skg.EdgeProb(k, u, dst, levels)
		c.cum[dst] = sum
	}
	return c
}

// Total returns F_u(|V|) = P_{u→}.
func (c *CDFVector) Total() float64 { return c.cum[len(c.cum)-1] }

// DetermineBinary finds F⁻¹_u(x) by binary search: O(log |V|).
func (c *CDFVector) DetermineBinary(x float64) int64 {
	lo, hi := 0, len(c.cum)-1
	// Find the smallest r with cum[r] > x.
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo)
}

// DetermineLinear finds F⁻¹_u(x) by linear scan: O(|V|).
func (c *CDFVector) DetermineLinear(x float64) int64 {
	for r, v := range c.cum {
		if v > x {
			return int64(r)
		}
	}
	return int64(len(c.cum) - 1)
}
