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
//   - ablation variants of the three key performance ideas of
//     Section 4.3, driving the Figure 13 reproduction;
//   - a math/big.Float backend standing in for the paper's BigDecimal
//     RecVec (Section 5).
package recvec

import (
	"fmt"
	"math"
	"math/bits"

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
}

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
	v.levels, v.u = levels, u
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
	v.f[levels] = p
	for x := levels - 1; x >= 0; x-- {
		v.f[x] = v.f[x+1] * frac[(uint64(u)>>uint(x))&1]
	}
	v.fillSigma()
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
	v.f[levels] = p
	for x := levels - 1; x >= 0; x-- {
		srcBit := (uint64(u) >> uint(x)) & 1
		lev := ns.Level(levels - 1 - x)
		row := lev.RowSum(srcBit)
		var frac float64
		if row > 0 {
			frac = lev.At(srcBit, 0) / row
		}
		v.f[x] = v.f[x+1] * frac
	}
	v.fillSigma()
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
	for k := 0; k < v.levels; k++ {
		if v.f[k] > 0 {
			v.sigma[k] = (v.f[k+1] - v.f[k]) / v.f[k]
		} else {
			v.sigma[k] = math.Inf(1)
		}
	}
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
// (Idea#3). The scope loops call it for the last < Lanes destinations
// of a scope and DrawLanes, which determines batches of draws to the
// same bits, for the rest.
//
// The Theorem 2 search "largest k with f[k] ≤ x" is done as one downward
// scan shared by all recursion steps: selected indices strictly
// decrease and f is non-decreasing, so the next index is the first
// k below the previous one with f[k] ≤ x, and every level is compared
// at most once per edge. It selects exactly the indices a fresh binary
// search per step (clamped below the previous index) selects, and
// translates x with the same subtraction and division, so destinations
// are bit-identical to that formulation (fuzzed in determine_test.go).
// The division must stay a division: multiplying by a stored 1/σ rounds
// differently and would change the generated graph.
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

// Lanes is how many draws DetermineBatch, the Go kernel, descends
// together: four independent scalar divide chains saturate the scalar
// divider (two gain nothing over Determine; eight in Go gain 5 %, as
// they spill — DESIGN.md §5.1). DetermineBatch writes its lanes out by
// hand, so the two change together.
const Lanes = 4

// WideLanes is how many draws determineWide descends together. The
// packed divider needs two independent ymm chains of Lanes doubles to
// run at its throughput, and there it takes about 0.4 of the Go kernel's
// time per draw (DESIGN.md §5.1).
const WideLanes = 2 * Lanes

// DrawLanes draws and determines the next batch of a scope's
// destinations: WideLanes uniforms on [0, RowProb()) from src when room
// is at least WideLanes, else Lanes when room is at least Lanes, else
// none. It sets out[l] = Determine(x_l) for the l-th value drawn, to the
// bit, and returns how many values it drew. A scope loop passes as room
// the number of draws it would make next whatever they hit, so a batch
// consumes src exactly as one Determine per draw would.
func (v *Vector) DrawLanes(src *rng.Source, room int64, out *[WideLanes]int64) int {
	var xs [WideLanes]float64
	total := v.RowProb()
	switch {
	case room >= WideLanes:
		for l := range xs {
			xs[l] = src.UniformTo(total)
		}
		v.determineWide(&xs, out)
		return WideLanes
	case room >= Lanes:
		for l := range Lanes {
			xs[l] = src.UniformTo(total)
		}
		v.DetermineBatch((*[Lanes]float64)(xs[:Lanes]), (*[Lanes]int64)(out[:Lanes]))
		return Lanes
	}
	return 0
}

// determineWide sets out[l] = Determine(xs[l]) for every lane, to the
// bit: by the AVX2 kernel where the CPU has AVX2 and the build has
// assembly, else by determineWideGo. IEEE subtraction and division are
// correctly rounded whether issued as DIVSD or packed VDIVPD, and Go
// sets neither FTZ nor DAZ, so both give the same bits.
func (v *Vector) determineWide(xs *[WideLanes]float64, out *[WideLanes]int64) {
	if hasAVX2 {
		determineWideAVX2(v.f, v.sigma, xs, out)
		return
	}
	v.determineWideGo(xs, out)
}

// determineWideGo is determineWide in two DetermineBatch passes: the
// fallback and the oracle the AVX2 kernel is tested against.
func (v *Vector) determineWideGo(xs *[WideLanes]float64, out *[WideLanes]int64) {
	v.DetermineBatch((*[Lanes]float64)(xs[:Lanes]), (*[Lanes]int64)(out[:Lanes]))
	v.DetermineBatch((*[Lanes]float64)(xs[Lanes:]), (*[Lanes]int64)(out[Lanes:]))
}

const (
	signBit = 1 << 63
	infBits = 0x7FF << 52 // math.Float64bits(math.Inf(1))
)

// DetermineBatch sets out[l] = Determine(xs[l]) for every lane, to the
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
func (v *Vector) DetermineBatch(xs *[Lanes]float64, out *[Lanes]int64) {
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

// searchBinary returns the largest k with f[k] <= x, i.e. the index
// selected in step (2) of Theorem 2, via binary search on the
// non-decreasing vector: O(log levels) per call. Only the ablation
// variants search per recursion step; Determine scans once.
func (v *Vector) searchBinary(x float64) int {
	lo, hi := 0, v.levels // invariant: f[lo] <= x, f[hi] > x is not guaranteed at entry
	// Find first index i in (0, levels] with f[i] > x; answer is i-1.
	// Caller guarantees f[0] <= x < f[levels].
	for lo < hi {
		mid := (lo + hi) / 2
		if v.f[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// searchLinear is the linear-scan variant of searchBinary, provided
// because for vectors of length ≤ ~40 a branch-predictable linear scan
// can beat binary search (Table 2 ablation).
func (v *Vector) searchLinear(x float64) int {
	k := 0
	for k < v.levels && v.f[k+1] <= x {
		k++
	}
	return k
}

// Options selects an ablation variant of edge determination. The zero
// value disables every idea (the RMAT-like worst case given the same
// stochastic model); Production() enables all three.
type Options struct {
	// ReuseVector (Idea#1): when false, the generator rebuilds the vector
	// before every edge instead of reusing the per-scope one.
	ReuseVector bool
	// SparseRecursion (Idea#2): when true, recursion count equals the
	// number of 1 bits in the destination ID (Theorem 2 search); when
	// false a full levels-step descent is performed.
	SparseRecursion bool
	// SingleRandom (Idea#3): when true, one uniform value is drawn per
	// edge and translated; when false a fresh uniform is drawn at every
	// recursion step.
	SingleRandom bool
	// LinearSearch switches the in-vector search from binary to linear
	// scan (Table 2 ablation; orthogonal to the paper's three ideas).
	LinearSearch bool
}

// Production returns the options of the real TrillionG path.
func Production() Options {
	return Options{ReuseVector: true, SparseRecursion: true, SingleRandom: true}
}

// DetermineOpt maps a uniform value to a destination under the given
// ablation options, drawing any extra randomness from src. The returned
// destination follows the same distribution for every option combination
// (property-tested); only the work performed differs.
func (v *Vector) DetermineOpt(x float64, src *rng.Source, o Options) int64 {
	if o == Production() {
		return v.Determine(x)
	}
	if o.SparseRecursion {
		return v.determineSparse(x, src, o)
	}
	return v.determineFull(x, src, o)
}

func (v *Vector) determineSparse(x float64, src *rng.Source, o Options) int64 {
	var dst int64
	prev := v.levels
	for x >= v.f[0] && x > 0 {
		var k int
		if o.LinearSearch {
			k = v.searchLinear(x)
		} else {
			k = v.searchBinary(x)
		}
		if k >= prev {
			k = prev - 1
			if k < 0 {
				break
			}
		}
		prev = k
		dst |= 1 << uint(k)
		if o.SingleRandom {
			x = (x - v.f[k]) / v.sigma[k]
		} else {
			// The conditional distribution of the remainder is uniform on
			// [0, f[k]); redrawing is distributionally identical.
			x = src.UniformTo(v.f[k])
		}
	}
	return dst
}

// determineFull walks every bit position from MSB to LSB (levels steps),
// which is what the model costs without Idea#2. The invariant is
// x ∈ [0, f[k+1]) at the start of step k.
func (v *Vector) determineFull(x float64, src *rng.Source, o Options) int64 {
	var dst int64
	for k := v.levels - 1; k >= 0; k-- {
		if x >= v.f[k] {
			dst |= 1 << uint(k)
			if o.SingleRandom {
				x = (x - v.f[k]) / v.sigma[k]
			} else {
				x = src.UniformTo(v.f[k])
			}
		} else if !o.SingleRandom {
			// Redraw within the kept region to mirror RMAT's
			// one-random-value-per-recursion behaviour.
			x = src.UniformTo(v.f[k])
		}
	}
	return dst
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
