package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/gformat"
	"repro/internal/skg"
)

// SizeEstimate predicts output volume without generating — the capacity
// planning the paper does when it reports "for Scale 38 the TSV file is
// approximately 90 TB, while the ADJ6 file is 25 TB" (Section 5).
// Everything is computed analytically from the seed in O(log|V|²).
type SizeEstimate struct {
	// Edges is the expected edge count (|E| by construction).
	Edges int64
	// NonZeroVertices is the expected number of vertices with at least
	// one out-edge (ADJ6 writes a header per such vertex only).
	NonZeroVertices int64
	// Bytes is the expected file volume in the requested format.
	Bytes int64
}

// EstimateSize predicts the output volume of cfg in the given format.
func EstimateSize(cfg Config, format gformat.Format) (SizeEstimate, error) {
	if err := cfg.Validate(); err != nil {
		return SizeEstimate{}, err
	}
	L := cfg.Scale
	e := float64(cfg.NumEdges())
	a := cfg.Seed.A + cfg.Seed.B // row mass of a 0 bit
	b := cfg.Seed.C + cfg.Seed.D
	if cfg.Orientation == AVSI {
		a, b = cfg.Seed.A+cfg.Seed.C, cfg.Seed.B+cfg.Seed.D
	}

	// Expected vertices with ≥1 edge, by popcount class: class k has
	// C(L,k) vertices of row mass a^(L−k)·b^k. The generator draws
	// scope sizes from Theorem 1's rounded normal approximation, so the
	// matching activity probability is P(N(np, np(1−p)) ≥ 0.5) — which
	// (faithfully to the paper) slightly inflates tail-class activity
	// relative to the exact binomial.
	var nz float64
	choose := 1.0
	for k := 0; k <= L; k++ {
		p := math.Pow(a, float64(L-k)) * math.Pow(b, float64(k))
		np := e * p
		sigma := math.Sqrt(np * (1 - p))
		var active float64
		if sigma > 0 {
			active = 0.5 * math.Erfc((0.5-np)/(sigma*math.Sqrt2))
		} else if np >= 0.5 {
			active = 1
		}
		nz += choose * active
		choose = choose * float64(L-k) / float64(k+1)
	}

	est := SizeEstimate{
		Edges:           cfg.NumEdges(),
		NonZeroVertices: int64(math.Round(nz)),
	}
	switch format {
	case gformat.ADJ6:
		est.Bytes = 10*est.NonZeroVertices + 6*est.Edges
	case gformat.CSR6:
		// Per part file: header + offsets for all |V| vertices +
		// neighbours. Single-part layout assumed; each extra part adds
		// another header+offset section.
		est.Bytes = 24 + 8*(cfg.NumVertices()+1) + 6*est.Edges
	case gformat.TSV:
		// Expected decimal length of source and destination IDs under
		// their per-bit product measures, plus tab and newline.
		srcDigits := expectedDecimalDigits(a, b, L)
		dstA := cfg.Seed.A + cfg.Seed.C // column masses drive destinations
		dstB := cfg.Seed.B + cfg.Seed.D
		if cfg.Orientation == AVSI {
			dstA, dstB = cfg.Seed.A+cfg.Seed.B, cfg.Seed.C+cfg.Seed.D
		}
		dstDigits := expectedDecimalDigits(dstA, dstB, L)
		est.Bytes = int64(math.Round(e * (srcDigits + dstDigits + 2)))
	default:
		return est, fmt.Errorf("core: no size model for format %v", format)
	}
	return est, nil
}

// EstimateRangeEdges predicts the expected number of edges whose source
// vertex lies in [lo, hi): |E| · P(lo ≤ src < hi) under Theorem 1's
// per-bit product measure (NSKG's noisy per-level shares included), in
// O(Scale) time. It is the cost model the admission scheduler charges a
// job before generating anything — the same expectation Plan balances,
// without drawing any scope sizes. lo/hi are clamped to [0, |V|].
func EstimateRangeEdges(cfg Config, lo, hi int64) (int64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return int64(math.Round(cfg.rowEdges()(lo, hi))), nil
}

// rowEdges is the closed form behind EstimateRangeEdges for a valid
// configuration, unrounded: the classic part's Part.ExpectedEdges and
// what Plan cuts by.
func (c Config) rowEdges() func(lo, hi int64) float64 {
	seed, noise, _ := c.model() // valid, so the noise draw cannot fail
	return RowEdges(seed, noise, c.Scale, c.NumEdges())
}

// RowEdges returns the expected-edges closed form of an SKG row range:
// edges · P(lo ≤ src < hi) for a 2^levels-vertex graph whose source
// bit at level i is 1 with that level's row-mass share (γ+δ)/(α+β+γ+δ) —
// the seed's at every level, or with NSKG noise (nil for none) the noisy
// level matrix's, whose µ_i is drawn once per graph and so does not
// average out — with lo/hi clamped to the vertex space. The shares of a
// level sum to 1, so the prefix mass stays an exact product.
func RowEdges(seed skg.Seed, noise *skg.Noise, levels int, edges int64) func(lo, hi int64) float64 {
	zeros := make([]float64, levels) // P(level i's source bit is 0), MSB first
	for i := range zeros {
		k := seed
		if noise != nil {
			k = noise.Level(i)
		}
		zeros[i] = (k.A + k.B) / (k.A + k.B + k.C + k.D)
	}
	return func(lo, hi int64) float64 {
		mass := prefixMass(zeros, hi) - prefixMass(zeros, lo)
		return float64(edges) * max(mass, 0)
	}
}

// CutRows is the one budget cutter — the plan, the server's part
// schedule and the executor's chunks all come from it: the end of the
// longest run of rows [lo, end) ⊆ [lo, hi) whose expected edges, by the
// closed form edges (monotone in its second argument), stay within
// budget. One row over budget is a run of its own, so end > lo whenever
// hi > lo. It costs O(log(hi−lo)) evaluations of edges.
func CutRows(edges func(lo, hi int64) float64, lo, hi int64, budget float64) int64 {
	if hi <= lo {
		return hi
	}
	return lo + 1 + int64(sort.Search(int(hi-lo-1), func(i int) bool {
		return edges(lo, lo+2+int64(i)) > budget
	}))
}

// prefixMass returns P(v < n) for a len(zeros)-bit word v whose bits are
// independent, the one of level i (MSB first) 0 with probability zeros[i].
func prefixMass(zeros []float64, n int64) float64 {
	levels := len(zeros)
	if n <= 0 {
		return 0
	}
	if n >= int64(1)<<uint(levels) {
		return 1
	}
	var sum float64
	run := 1.0
	for i, pa := range zeros {
		if (n>>uint(levels-1-i))&1 == 1 {
			sum += run * pa
			run *= 1 - pa
		} else {
			run *= pa
		}
	}
	return sum
}

// expectedDecimalDigits returns E[len(decimal(v))] where v's bits are
// independently 1 with probability b/(a+b) at every position — but
// weighted by *edge mass*, i.e. bit i of a participating vertex is 1
// with probability b (a+b = 1 after normalization per bit).
func expectedDecimalDigits(a, b float64, levels int) float64 {
	// P(v < n) for the per-bit product measure, normalized (a+b may not
	// be 1 overall across levels; per bit the mass splits a : b).
	zeros := make([]float64, levels)
	for i := range zeros {
		zeros[i] = a / (a + b)
	}
	prefix := func(n int64) float64 { return prefixMass(zeros, n) }
	var exp float64
	bound := int64(1)
	for d := 1; ; d++ {
		next := bound * 10
		if next <= bound { // overflow guard
			next = math.MaxInt64
		}
		frac := prefix(next) - prefix(bound)
		if d == 1 {
			frac += prefix(1) // v = 0 has one digit too
		}
		exp += float64(d) * frac
		if next >= int64(1)<<uint(levels) {
			break
		}
		bound = next
	}
	return exp
}
