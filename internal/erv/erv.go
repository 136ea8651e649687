// Package erv implements the Extended Recursive Vector model of
// Section 6.1: graph generation over a rectangular block of the
// probability matrix with *independent* control of the out-degree
// distribution (seed parameters Kout drive the scope sizes of
// Theorem 1) and the in-degree distribution (seed parameters Kin drive
// the destination draw of Theorem 2), plus different source and
// destination vertex ranges.
//
// Degree-distribution control follows Table 3 / Lemma 6:
//
//   - Zipfian with chosen slope s: row masses in ratio 2^s
//     (out: slope = log2(γ+δ) − log2(α+β); in: column analogue);
//   - Gaussian with mean |E|/|V|: the uniform seed;
//   - Uniform over [min, max]: drawn directly (the case the paper
//     notes is trivial and omits).
//
// A scope here is the AVS scope procedure over a rectangle, and it
// filters in-scope duplicates through the same avs.DedupSet, held by
// the Generator and reused from scope to scope (O(d_max) working
// memory, no allocation per scope). So a Generator's Scope is not safe
// for concurrent use: one Generator per goroutine. A collection is
// drawn row by row by core's part executor, as a community block
// (internal/community), whatever it was compiled from.
package erv

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/alias"
	"repro/internal/avs"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// DistKind enumerates the gMark degree-distribution families.
type DistKind int

const (
	// Zipfian is a power-law distribution with a configurable slope.
	Zipfian DistKind = iota
	// Gaussian is the normal distribution arising from a uniform seed.
	Gaussian
	// Uniform draws degrees uniformly from [Min, Max].
	Uniform
	// Empirical draws from a user-supplied frequency table (a "data
	// dictionary" — the Section 8 future-work extension). As an OutDist,
	// Weights[d] is the relative frequency of out-degree d. As an
	// InDist, Weights is a popularity histogram stretched over the
	// destination range: a bucket is drawn ∝ its weight, then a vertex
	// uniformly within the bucket's span.
	Empirical
)

// String names the kind.
func (k DistKind) String() string {
	switch k {
	case Zipfian:
		return "zipfian"
	case Gaussian:
		return "gaussian"
	case Uniform:
		return "uniform"
	case Empirical:
		return "empirical"
	default:
		return fmt.Sprintf("DistKind(%d)", int(k))
	}
}

// Dist specifies one degree distribution. As an OutDist, Uniform means
// "degree drawn uniformly from [Min, Max]"; as an InDist it means
// "destinations drawn uniformly over the range" (Min/Max are ignored),
// which yields Gaussian in-degrees — exact per-vertex in-degree
// constraints are not expressible under independent destination draws.
type Dist struct {
	Kind DistKind
	// Slope is the Zipfian log-log slope (negative), e.g. −1.662.
	Slope float64
	// Min and Max bound the Uniform distribution (inclusive).
	Min, Max int64
	// Weights is the Empirical frequency table (unnormalized, ≥ 0).
	Weights []float64
}

// Validate checks the specification.
func (d Dist) Validate() error {
	switch d.Kind {
	case Zipfian:
		if d.Slope >= 0 {
			return fmt.Errorf("erv: zipfian slope %v must be negative", d.Slope)
		}
	case Gaussian:
	case Uniform:
		// Max−Min+1, the count of degrees drawn from, must fit an int64.
		if d.Min < 0 || d.Max < d.Min || d.Max-d.Min == math.MaxInt64 {
			return fmt.Errorf("erv: uniform bounds [%d, %d] invalid", d.Min, d.Max)
		}
	case Empirical:
		if len(d.Weights) == 0 {
			return fmt.Errorf("erv: empirical distribution needs weights")
		}
		var total float64
		for i, w := range d.Weights {
			if w < 0 || w != w {
				return fmt.Errorf("erv: empirical weight[%d] = %v invalid", i, w)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("erv: empirical weights all zero")
		}
	default:
		return fmt.Errorf("erv: unknown distribution kind %d", int(d.Kind))
	}
	return nil
}

// SeedForOutSlope returns a 2x2 seed whose out-degree distribution has
// the requested Zipfian slope (Lemma 6): row masses a = α+β and
// 1−a = γ+δ with (1−a)/a = 2^slope. The column split is even, which
// leaves the in-degree side neutral.
func SeedForOutSlope(slope float64) skg.Seed {
	a := 1 / (1 + math.Exp2(slope))
	return skg.Seed{A: a / 2, B: a / 2, C: (1 - a) / 2, D: (1 - a) / 2}
}

// SeedForInSlope is the column analogue: α+γ and β+δ in ratio 2^slope.
func SeedForInSlope(slope float64) skg.Seed {
	a := 1 / (1 + math.Exp2(slope))
	return skg.Seed{A: a / 2, B: (1 - a) / 2, C: a / 2, D: (1 - a) / 2}
}

// outSeed maps a Dist to the Kout seed for scope sizing. Uniform
// returns ok=false: it bypasses the seed machinery.
func (d Dist) outSeed() (skg.Seed, bool) {
	switch d.Kind {
	case Zipfian:
		return SeedForOutSlope(d.Slope), true
	case Gaussian:
		return skg.UniformSeed, true
	default:
		return skg.Seed{}, false
	}
}

// inSeed maps a Dist to the Kin seed for destination drawing.
func (d Dist) inSeed() (skg.Seed, bool) {
	switch d.Kind {
	case Zipfian:
		return SeedForInSlope(d.Slope), true
	case Gaussian:
		return skg.UniformSeed, true
	default:
		return skg.Seed{}, false
	}
}

// Config describes one ERV edge collection (one colored rectangle of
// Figure 7b).
type Config struct {
	// NumSrc and NumDst are the sizes of the source and destination
	// vertex ranges (need not be powers of two or equal).
	NumSrc, NumDst int64
	// NumEdges is the collection's edge budget.
	NumEdges int64
	// OutDist controls the out-degree distribution.
	OutDist Dist
	// InDist controls the in-degree distribution.
	InDist Dist
	// AllowDuplicates keeps repeated (src, dst) pairs (gMark's behaviour
	// the paper criticizes); TrillionG's default is dedup within scope.
	AllowDuplicates bool
}

// RangeError reports an unusable rectangular range: zero rows, zero
// columns, or an inverted (negative-extent) axis. It is a typed error
// so spec-validation layers (the server's bipartite shape, the
// community mixer) can distinguish a bad rectangle from other
// configuration problems with errors.As.
type RangeError struct {
	// Rows and Cols are the offending source × destination extents.
	Rows, Cols int64
}

// Error implements error.
func (e *RangeError) Error() string {
	axis := func(n int64, name string) string {
		switch {
		case n < 0:
			return fmt.Sprintf("inverted %s extent %d", name, n)
		case n == 0:
			return fmt.Sprintf("empty %s range", name)
		default:
			return ""
		}
	}
	msg := "erv: rectangular range " + fmt.Sprintf("%d×%d", e.Rows, e.Cols) + " unusable"
	for _, a := range []string{axis(e.Rows, "row"), axis(e.Cols, "column")} {
		if a != "" {
			msg += ": " + a
		}
	}
	return msg
}

// Validate checks the configuration. Empty or inverted rectangles are
// reported as a *RangeError.
func (c Config) Validate() error {
	if c.NumSrc < 1 || c.NumDst < 1 {
		return &RangeError{Rows: c.NumSrc, Cols: c.NumDst}
	}
	if c.NumSrc > 1<<47 || c.NumDst > 1<<47 {
		return fmt.Errorf("erv: vertex range exceeds supported size")
	}
	if c.NumEdges < 1 {
		return fmt.Errorf("erv: NumEdges %d < 1", c.NumEdges)
	}
	if err := c.OutDist.Validate(); err != nil {
		return err
	}
	return c.InDist.Validate()
}

func levelsFor(n int64) int {
	l := 0
	for int64(1)<<uint(l) < n {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// prefixRowMass returns Σ_{u<n} w(u) where w(u) = a^{zeros(u)}·b^{ones(u)}
// over `levels` bits and a+b = 1 — the normalization constant for
// truncating a per-bit product measure to [0, n). O(levels).
func prefixRowMass(a, b float64, n int64, levels int) float64 {
	if n >= int64(1)<<uint(levels) {
		return 1
	}
	var sum float64
	prefix := 1.0
	for i := levels - 1; i >= 0; i-- {
		bit := (n >> uint(i)) & 1
		if bit == 1 {
			// All values with this bit 0 and the same higher bits are < n.
			sum += prefix * a
			prefix *= b
		} else {
			prefix *= a
		}
	}
	return sum
}

// Generator produces one ERV edge collection. Scope reuses its dedup
// set (one Generator per goroutine); ScopeSize and the
// probability accessors only read what New filled.
type Generator struct {
	cfg       Config
	srcLevels int
	dstLevels int
	// outA is the Kout row mass of a 0 bit (α+β); outB of a 1 bit.
	outA, outB float64
	outNorm    float64 // Σ row masses over [0, NumSrc)
	// outMass[ones] is the row mass of a source with that many 1 bits.
	outMass []float64
	// dstVec is the destination CDF vector (shared by every scope; the
	// column measure does not depend on the source).
	dstVec *recvec.Vector
	// inA is the Kin column mass of a 0 bit (α+γ); inB of a 1 bit;
	// inNorm is their product-measure total over [0, NumDst).
	inA, inB, inNorm float64
	// uniformOut/uniformIn flag the trivial direct-sampling paths.
	uniformOut, uniformIn bool
	// outAlias samples empirical out-degrees (index = degree); inAlias
	// samples empirical destination buckets spread over [0, NumDst).
	outAlias, inAlias *alias.Table
	// set is the in-scope duplicate filter, reused across Scope calls:
	// the generator's own, unless ShareSet lent it the calling thread's.
	set *avs.DedupSet
}

// New validates cfg and precomputes the shared vectors.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:       cfg,
		srcLevels: levelsFor(cfg.NumSrc),
		dstLevels: levelsFor(cfg.NumDst),
		set:       new(avs.DedupSet),
	}
	switch {
	case cfg.OutDist.Kind == Empirical:
		t, err := alias.New(cfg.OutDist.Weights)
		if err != nil {
			return nil, err
		}
		g.outAlias = t
	default:
		if kout, ok := cfg.OutDist.outSeed(); ok {
			g.outA = kout.A + kout.B
			g.outB = kout.C + kout.D
			g.outNorm = prefixRowMass(g.outA, g.outB, cfg.NumSrc, g.srcLevels)
			// The mass depends on the source only through its popcount: one
			// entry per class, the same expression, so the same bits.
			g.outMass = make([]float64, g.srcLevels+1)
			for ones := range g.outMass {
				g.outMass[ones] = math.Pow(g.outA, float64(g.srcLevels-ones)) * math.Pow(g.outB, float64(ones))
			}
		} else {
			g.uniformOut = true
		}
	}
	switch {
	case cfg.InDist.Kind == Empirical:
		t, err := alias.New(cfg.InDist.Weights)
		if err != nil {
			return nil, err
		}
		g.inAlias = t
	default:
		if kin, ok := cfg.InDist.inSeed(); ok {
			// Destination measure: each bit of v weighs (α+γ) when 0 and
			// (β+δ) when 1. Encode it as the row-0 recursive vector of a
			// synthetic seed whose both rows carry the column masses.
			a, b := kin.A+kin.C, kin.B+kin.D
			dstSeed := skg.Seed{A: a / 2, B: b / 2, C: a / 2, D: b / 2}
			g.dstVec = recvec.New(dstSeed, 0, g.dstLevels)
			g.inA, g.inB = a, b
			g.inNorm = prefixRowMass(a, b, cfg.NumDst, g.dstLevels)
		} else {
			g.uniformIn = true
		}
	}
	return g, nil
}

// ShareSet makes g filter duplicates through set instead of a set of its
// own, as avs.Generator.ShareSet does.
func (g *Generator) ShareSet(set *avs.DedupSet) { g.set = set }

// rowMass returns the unnormalized Kout measure of source u ∈ [0, NumSrc).
func (g *Generator) rowMass(u int64) float64 {
	return g.outMass[bits.OnesCount64(uint64(u))]
}

// ScopeSize draws the out-degree of source u per Theorem 1 under Kout,
// normalized to the truncated source range — or from the Uniform or
// Empirical table — clamped to NumDst unless duplicates are allowed.
func (g *Generator) ScopeSize(u int64, src *rng.Source) int64 {
	if u < 0 || u >= g.cfg.NumSrc {
		return 0
	}
	var d int64
	switch {
	case g.outAlias != nil:
		d = int64(g.outAlias.Sample(src))
	case g.uniformOut:
		d = g.cfg.OutDist.Min + src.Int63n(g.cfg.OutDist.Max-g.cfg.OutDist.Min+1)
	default:
		d = src.Binomial(g.cfg.NumEdges, g.rowMass(u)/g.outNorm)
	}
	// A deduplicated row holds at most NumDst distinct destinations.
	if !g.cfg.AllowDuplicates && d > g.cfg.NumDst {
		d = g.cfg.NumDst
	}
	return d
}

// ScopeSizeProb returns the per-trial probability p of source u's
// Binomial(NumEdges, p) out-degree draw under Kout — the quantity the
// statistical validator's closed forms need. Uniform and Empirical
// out-distributions bypass the binomial machinery and return 0.
func (g *Generator) ScopeSizeProb(u int64) float64 {
	if g.outAlias != nil || g.uniformOut || u < 0 || u >= g.cfg.NumSrc {
		return 0
	}
	return g.rowMass(u) / g.outNorm
}

// ExpectedEdges returns the expected number of edges of source rows
// [lo, hi) before the per-row clamp to NumDst — the sum of ScopeSize's
// means, in O(levels): the Kout prefix mass for the seeded
// distributions, rows × mean degree for Uniform and Empirical. It is the
// cost model a scheduler cuts a collection into chunks by.
func (g *Generator) ExpectedEdges(lo, hi int64) float64 {
	lo, hi = max(lo, 0), min(hi, g.cfg.NumSrc)
	if lo >= hi {
		return 0
	}
	switch {
	case g.outAlias != nil:
		var mass, sum float64
		for d, w := range g.cfg.OutDist.Weights {
			mass += w
			sum += float64(d) * w
		}
		return float64(hi-lo) * sum / mass
	case g.uniformOut:
		return float64(hi-lo) * (float64(g.cfg.OutDist.Min) + float64(g.cfg.OutDist.Max)) / 2
	}
	mass := prefixRowMass(g.outA, g.outB, hi, g.srcLevels) - prefixRowMass(g.outA, g.outB, lo, g.srcLevels)
	return float64(g.cfg.NumEdges) * mass / g.outNorm
}

// DestProb returns the probability that a single destination draw
// yields v, conditioned on the valid range exactly as drawDst's
// rejection loop conditions it. Empirical in-distributions return 0.
func (g *Generator) DestProb(v int64) float64 {
	if g.inAlias != nil || v < 0 || v >= g.cfg.NumDst {
		return 0
	}
	if g.uniformIn {
		return 1 / float64(g.cfg.NumDst)
	}
	ones := 0
	for x := v; x != 0; x &= x - 1 {
		ones++
	}
	mass := math.Pow(g.inA, float64(g.dstLevels-ones)) * math.Pow(g.inB, float64(ones))
	return mass / g.inNorm
}

// drawDst draws one destination in [0, NumDst) from the Kin column
// measure (rejection over the power-of-two closure, which conditions
// the measure on the valid range).
func (g *Generator) drawDst(src *rng.Source) int64 {
	if g.inAlias != nil {
		// Bucket b covers [b·span, min((b+1)·span, NumDst)).
		buckets := int64(g.inAlias.Len())
		b := int64(g.inAlias.Sample(src))
		lo := b * g.cfg.NumDst / buckets
		hi := (b + 1) * g.cfg.NumDst / buckets
		if hi <= lo {
			hi = lo + 1
			if hi > g.cfg.NumDst {
				return g.cfg.NumDst - 1
			}
		}
		return lo + src.Int63n(hi-lo)
	}
	if g.uniformIn {
		return src.Int63n(g.cfg.NumDst)
	}
	for {
		v := g.dstVec.Determine(src.UniformTo(g.dstVec.RowProb()))
		if v < g.cfg.NumDst {
			return v
		}
	}
}

// Scope generates source u's destinations (deduplicated unless
// AllowDuplicates). Destinations use range-local IDs [0, NumDst).
// Rejection sampling stops after 64·size+1024 attempts, the cap of
// avs.ScopeWithSize, so a near-full row comes back short rather than
// looping; the cap is part of the stream.
func (g *Generator) Scope(u int64, src *rng.Source, buf []int64) []int64 {
	size := g.ScopeSize(u, src)
	out := buf[:0]
	if size <= 0 {
		return out
	}
	out = slices.Grow(out, int(size)) // known before the first draw
	if g.cfg.AllowDuplicates {
		for int64(len(out)) < size {
			out = append(out, g.drawDst(src))
		}
		return out
	}
	set := g.set
	set.Begin(size, g.cfg.NumDst, true)
	attempts, limit := int64(0), 64*size+1024
	if g.dstVec != nil {
		// As in avs.ScopeWithSize: while n more destinations and n more
		// attempts are both allowed, the loop below would consume the next
		// n draws whatever they yield, so a batch of up to n is determined
		// together; out-of-range ones are skipped uncounted, as drawDst does.
		var vs [recvec.WideLanes]int64
		for {
			n := g.dstVec.DrawLanes(src, min(size-int64(len(out)), limit-attempts), &vs)
			if n == 0 {
				break
			}
			for _, v := range vs[:n] {
				if v >= g.cfg.NumDst {
					continue
				}
				attempts++
				if set.Insert(v) {
					out = append(out, v)
				}
			}
		}
	}
	for int64(len(out)) < size && attempts < limit {
		attempts++
		if v := g.drawDst(src); set.Insert(v) {
			out = append(out, v)
		}
	}
	return out
}
