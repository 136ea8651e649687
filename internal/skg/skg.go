// Package skg implements the probability mathematics of the Stochastic
// Kronecker Graph model with a 2x2 seed matrix, which is the common core
// of RMAT, Kronecker, Graph500 and TrillionG's recursive vector model.
//
// The package covers:
//
//   - the seed matrix K = [α β; γ δ] and its validation,
//   - Proposition 1: K_{u,v} = α^Bits(~u&~v) β^Bits(~u&v) γ^Bits(u&~v) δ^Bits(u&v),
//   - Lemma 1: row probability P_{u→} = (α+β)^Bits(~u) (γ+δ)^Bits(u),
//   - Definition 3 / Lemma 7: NSKG noisy per-level seed matrices and the
//     noisy row probability,
//   - full Kronecker expansion for small |V| (reference implementation
//     used by tests and the naive AES generator).
package skg

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Seed is the 2x2 seed probability matrix
//
//	[ A B ]   [ α β ]
//	[ C D ] = [ γ δ ]
//
// with A+B+C+D = 1. Rows index the source-vertex bit, columns the
// destination-vertex bit (0 = upper/left half of the quadrant).
type Seed struct {
	A, B, C, D float64
}

// Graph500Seed is the standard seed used by the Graph500 benchmark and
// throughout the paper's evaluation: K = [0.57, 0.19; 0.19, 0.05].
var Graph500Seed = Seed{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// UniformSeed is the Erdős–Rényi point of the model: all quadrants equal.
var UniformSeed = Seed{A: 0.25, B: 0.25, C: 0.25, D: 0.25}

// Validate reports whether the seed is a proper probability matrix:
// entries non-negative and summing to 1 within tolerance.
func (k Seed) Validate() error {
	for _, v := range []float64{k.A, k.B, k.C, k.D} {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("skg: seed entry %v out of range", v)
		}
	}
	if s := k.A + k.B + k.C + k.D; math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("skg: seed entries sum to %v, want 1", s)
	}
	return nil
}

// ParseSeed parses the command-line form of a seed, "A,B,C,D" (spaces
// around an entry are allowed), and validates it.
func ParseSeed(spec string) (Seed, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 4 {
		return Seed{}, fmt.Errorf("seed must be four comma-separated numbers, got %q", spec)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Seed{}, fmt.Errorf("seed entry %q: %w", p, err)
		}
		vals[i] = v
	}
	s := Seed{A: vals[0], B: vals[1], C: vals[2], D: vals[3]}
	return s, s.Validate()
}

// At returns the entry addressed by one source bit and one destination
// bit: At(0,0)=α, At(0,1)=β, At(1,0)=γ, At(1,1)=δ.
func (k Seed) At(srcBit, dstBit uint64) float64 {
	switch {
	case srcBit == 0 && dstBit == 0:
		return k.A
	case srcBit == 0:
		return k.B
	case dstBit == 0:
		return k.C
	default:
		return k.D
	}
}

// RowSum returns α+β (srcBit 0) or γ+δ (srcBit 1): the total probability
// mass of a row of the seed.
func (k Seed) RowSum(srcBit uint64) float64 {
	if srcBit == 0 {
		return k.A + k.B
	}
	return k.C + k.D
}

// ColSum returns α+γ (dstBit 0) or β+δ (dstBit 1).
func (k Seed) ColSum(dstBit uint64) float64 {
	if dstBit == 0 {
		return k.A + k.C
	}
	return k.B + k.D
}

// Transpose returns the seed with β and γ swapped. Generating with the
// transposed seed under AVS-I is symmetric to AVS-O generation.
func (k Seed) Transpose() Seed {
	return Seed{A: k.A, B: k.C, C: k.B, D: k.D}
}

// OutZipfSlope returns the theoretical log-log slope of the Zipfian
// out-degree distribution generated by this seed (Lemma 6 / Table 3):
// log2(γ+δ) − log2(α+β).
func (k Seed) OutZipfSlope() float64 {
	return math.Log2(k.C+k.D) - math.Log2(k.A+k.B)
}

// InZipfSlope returns the theoretical slope for the in-degree
// distribution: log2(β+δ) − log2(α+γ).
func (k Seed) InZipfSlope() float64 {
	return math.Log2(k.B+k.D) - math.Log2(k.A+k.C)
}

// EdgeProb implements Proposition 1: the probability K_{u,v} of the edge
// (u,v) in a Kronecker matrix of 2^levels vertices. Vertex IDs are read
// as binary strings of length `levels`.
func EdgeProb(k Seed, u, v int64, levels int) float64 {
	mask := uint64(1)<<uint(levels) - 1
	uu, vv := uint64(u)&mask, uint64(v)&mask
	nu, nv := ^uu&mask, ^vv&mask
	return math.Pow(k.A, float64(bits.OnesCount64(nu&nv))) *
		math.Pow(k.B, float64(bits.OnesCount64(nu&vv))) *
		math.Pow(k.C, float64(bits.OnesCount64(uu&nv))) *
		math.Pow(k.D, float64(bits.OnesCount64(uu&vv)))
}

// RowProb implements Lemma 1: P_{u→} = (α+β)^Bits(~u) · (γ+δ)^Bits(u),
// the probability that a single stochastic edge trial lands anywhere in
// the row of source vertex u.
func RowProb(k Seed, u int64, levels int) float64 {
	mask := uint64(1)<<uint(levels) - 1
	ones := bits.OnesCount64(uint64(u) & mask)
	return math.Pow(k.A+k.B, float64(levels-ones)) *
		math.Pow(k.C+k.D, float64(ones))
}

// ColProb is the column analogue of Lemma 1: P_{→v} = (α+γ)^Bits(~v) ·
// (β+δ)^Bits(v), used by the AVS-I orientation and by the ERV model.
func ColProb(k Seed, v int64, levels int) float64 {
	mask := uint64(1)<<uint(levels) - 1
	ones := bits.OnesCount64(uint64(v) & mask)
	return math.Pow(k.A+k.C, float64(levels-ones)) *
		math.Pow(k.B+k.D, float64(ones))
}

// ExpectedOnesFraction is the expected number of 1 bits in a generated
// destination-vertex ID, as a fraction of log|V| (the quantity Lemma 5
// estimates). Each destination bit is 1 with marginal probability β+δ
// regardless of level (a source bit is 0 with mass α+β, in which case the
// destination bit is 1 with β/(α+β); otherwise with δ/(γ+δ); the mixture
// is exactly β+δ). The paper's printed Lemma 5 closed form evaluates to
// log|V|/3.8 for the Graph500 seed and its prose says log|V|/4.917;
// neither matches the exact marginal 1/(β+δ) = 4.167, which our
// recvec-level empirical test confirms. We implement the exact value and
// record the discrepancy in EXPERIMENTS.md.
func ExpectedOnesFraction(k Seed) float64 {
	return k.B + k.D
}

// Expand returns the fully expanded Kronecker probability matrix
// K^{⊗levels} as a dense row-major slice of length 4^levels. It is the
// O(|V|^2) reference used by tests and the naive AES baseline; levels is
// capped to keep the allocation sane.
func Expand(k Seed, levels int) []float64 {
	if levels < 0 || levels > 13 { // 13 → 64M float64s = 512 MB; stay below
		panic(fmt.Sprintf("skg: Expand levels %d out of supported range", levels))
	}
	n := int64(1) << uint(levels)
	m := make([]float64, n*n)
	for u := int64(0); u < n; u++ {
		for v := int64(0); v < n; v++ {
			m[u*n+v] = EdgeProb(k, u, v, levels)
		}
	}
	return m
}

// Noise draws the per-level noisy seed matrices of NSKG (Definition 3).
// Level i gets K_i = [α(1−2µᵢ/(α+δ)), β+µᵢ; γ+µᵢ, δ(1−2µᵢ/(α+δ))] with
// µᵢ ~ U[−N, N]. The whole slice is drawn from the supplied stream so
// that a graph remains a pure function of (seed, config).
type Noise struct {
	base Seed
	n    float64
	mus  []float64
	mats []Seed
}

// MaxNoise returns the largest admissible noise parameter for the seed:
// N ≤ min((α+δ)/2, β, γ), the bound that keeps every entry of every
// Definition 3 level matrix non-negative. (The paper states
// min((α+δ)/2, β) for its symmetric seeds, where β = γ.)
func MaxNoise(k Seed) float64 {
	return min((k.A+k.D)/2, k.B, k.C)
}

// NewNoise draws level noises µ_0..µ_{levels-1} for base seed k. A noise
// parameter of 0 yields the plain SKG model (all K_i = k).
func NewNoise(k Seed, levels int, noiseParam float64, src *rng.Source) (*Noise, error) {
	if noiseParam < 0 {
		return nil, fmt.Errorf("skg: negative noise parameter %v", noiseParam)
	}
	max := MaxNoise(k)
	if noiseParam > max+1e-12 {
		return nil, fmt.Errorf("skg: noise parameter %v exceeds min((α+δ)/2, β, γ) = %v", noiseParam, max)
	}
	// The tolerance forgives a bound recomputed with other roundings; the
	// draws use the bound itself, so no level entry comes out negative.
	noiseParam = min(noiseParam, max)
	ns := &Noise{base: k, n: noiseParam}
	ns.mus = make([]float64, levels)
	ns.mats = make([]Seed, levels)
	for i := range ns.mus {
		mu := 0.0
		if noiseParam > 0 {
			mu = src.UniformIn(-noiseParam, noiseParam)
		}
		ns.mus[i] = mu
		shrink := 1 - 2*mu/(k.A+k.D)
		ns.mats[i] = Seed{
			A: k.A * shrink,
			B: k.B + mu,
			C: k.C + mu,
			D: k.D * shrink,
		}
	}
	return ns, nil
}

// Transpose returns the noise instance of the transposed model: each
// level matrix is transposed (the Definition 3 perturbation commutes
// with transposition because it touches α/δ symmetrically and adds the
// same µ to both off-diagonal entries). Used by the AVS-I orientation.
func (ns *Noise) Transpose() *Noise {
	out := &Noise{
		base: ns.base.Transpose(),
		n:    ns.n,
		mus:  append([]float64(nil), ns.mus...),
		mats: make([]Seed, len(ns.mats)),
	}
	for i, m := range ns.mats {
		out.mats[i] = m.Transpose()
	}
	return out
}

// Levels returns the number of noisy levels.
func (ns *Noise) Levels() int { return len(ns.mats) }

// Param returns the noise parameter N the instance was drawn with.
func (ns *Noise) Param() float64 { return ns.n }

// Base returns the underlying noise-free seed.
func (ns *Noise) Base() Seed { return ns.base }

// Level returns the noisy seed matrix K_i of level i. Level 0 is the
// most significant bit of the vertex IDs, matching the Kronecker product
// order K_0 ⊗ K_1 ⊗ … ⊗ K_{levels−1}.
func (ns *Noise) Level(i int) Seed { return ns.mats[i] }

// Mu returns the raw noise value µ_i of level i.
func (ns *Noise) Mu(i int) float64 { return ns.mus[i] }

// RowProb computes the NSKG row probability P′_{u→} of Lemma 7:
//
//	P′_{u→} = P_{u→} · ∏_i (1 + c_{αβ}µᵢ)^{~u[i]} (1 + c_{γδ}µᵢ)^{u[i]}
//
// with c_{αβ} = −(α−δ)/((α+δ)(α+β)) and c_{γδ} = (α−δ)/((α+δ)(γ+δ)).
// Bit i of u counts from the MSB (level 0) down, mirroring the product
// order of the noisy Kronecker matrices.
func (ns *Noise) RowProb(u int64, levels int) float64 {
	k := ns.base
	cab := -(k.A - k.D) / ((k.A + k.D) * (k.A + k.B))
	cgd := (k.A - k.D) / ((k.A + k.D) * (k.C + k.D))
	p := RowProb(k, u, levels)
	for i := 0; i < levels; i++ {
		// Level i multiplies the bit at position levels-1-i (MSB first).
		bit := (uint64(u) >> uint(levels-1-i)) & 1
		if bit == 0 {
			p *= 1 + cab*ns.mus[i]
		} else {
			p *= 1 + cgd*ns.mus[i]
		}
	}
	return p
}

// EdgeProbNoisy is the NSKG analogue of Proposition 1: the product over
// levels of the level-specific seed entries selected by the bits of u
// and v (MSB-first). It is the reference implementation tests use to
// validate Lemma 7 and Lemma 8 closed forms.
func (ns *Noise) EdgeProbNoisy(u, v int64, levels int) float64 {
	p := 1.0
	for i := 0; i < levels; i++ {
		sb := (uint64(u) >> uint(levels-1-i)) & 1
		db := (uint64(v) >> uint(levels-1-i)) & 1
		p *= ns.mats[i].At(sb, db)
	}
	return p
}

// FitSeed constructs a 2x2 seed matrix with prescribed Zipfian slopes
// for both axes (Lemma 6 inverted): outSlope fixes (γ+δ)/(α+β) and
// inSlope fixes (β+δ)/(α+γ); assortativity in (−1, 1) spends the one
// remaining degree of freedom, shifting mass toward the diagonal
// (positive: hubs link to hubs) or off it. assortativity 0 makes the
// two axes independent (K = row ⊗ col, rank one).
func FitSeed(outSlope, inSlope, assortativity float64) (Seed, error) {
	if outSlope >= 0 || inSlope >= 0 {
		return Seed{}, fmt.Errorf("skg: slopes must be negative (got %v, %v)", outSlope, inSlope)
	}
	if assortativity <= -1 || assortativity >= 1 {
		return Seed{}, fmt.Errorf("skg: assortativity %v outside (-1, 1)", assortativity)
	}
	row0 := 1 / (1 + math.Exp2(outSlope)) // α+β
	col0 := 1 / (1 + math.Exp2(inSlope))  // α+γ
	// Independent baseline: K = outer product of the marginals.
	k := Seed{
		A: row0 * col0,
		B: row0 * (1 - col0),
		C: (1 - row0) * col0,
		D: (1 - row0) * (1 - col0),
	}
	// Diagonal shift t preserves both marginals: A+t, B−t, C−t, D+t.
	// Bound t so all entries stay non-negative.
	var t float64
	if assortativity > 0 {
		t = assortativity * math.Min(k.B, k.C)
	} else {
		t = assortativity * math.Min(k.A, k.D)
	}
	k.A += t
	k.B -= t
	k.C -= t
	k.D += t
	return k, k.Validate()
}
