// Package avs implements the A-Vertex-Scope engine of Sections 3.3–5:
// for each source vertex u (one scope), it draws the scope size from
// Theorem 1's normal approximation of the binomial and generates that
// many *distinct* destinations with the recursive vector model
// (Algorithm 4), deduplicating inside the scope only.
//
// The engine is deliberately independent of threading and I/O: callers
// (the TrillionG core, the partitioner, the experiment harness) decide
// which scopes to run where and what to do with the adjacency lists.
package avs

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/memacct"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// Config parameterizes scope generation for one graph.
type Config struct {
	// Seed is the 2x2 probability matrix.
	Seed skg.Seed
	// Levels is log2|V|.
	Levels int
	// NumEdges is the target |E| of Theorem 1 (the binomial trial count).
	NumEdges int64
	// Noise, when non-nil, switches the engine to the NSKG model
	// (Appendix C); it must have at least Levels levels.
	Noise *skg.Noise
	// Opts selects the ablation variant of edge determination;
	// recvec.Production() is the real system.
	Opts recvec.Options
	// HighPrecision switches RecVec arithmetic to math/big.Float
	// (the paper's BigDecimal mode, Section 5).
	HighPrecision bool
	// AllowDuplicates skips in-scope duplicate elimination, emitting raw
	// stochastic trials like the Graph500 edge-list generator. The
	// paper's criticism of such lists ("a huge number of repeated
	// edges") is measurable by diffing this mode against the default.
	AllowDuplicates bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Seed.Validate(); err != nil {
		return err
	}
	if c.Levels < 1 || c.Levels > 47 {
		return fmt.Errorf("avs: levels %d outside [1, 47]", c.Levels)
	}
	if c.NumEdges < 1 {
		return fmt.Errorf("avs: NumEdges %d < 1", c.NumEdges)
	}
	if c.Noise != nil && c.Noise.Levels() < c.Levels {
		return fmt.Errorf("avs: noise has %d levels, need %d", c.Noise.Levels(), c.Levels)
	}
	return nil
}

// NumVertices returns |V| = 2^Levels.
func (c Config) NumVertices() int64 { return int64(1) << uint(c.Levels) }

// Generator generates scopes for one graph configuration. Scope and
// ScopeWithSize are not safe for concurrent use (they share the
// generator's recursive vector and dedup set) — give each thread its
// own instance, as core's executor does: a thread builds one for the
// part it is drawing rows of, and another when it moves to another
// part. ScopeSize and the probability
// accessors only read tables filled by New and are safe to call
// concurrently (the partitioner's parallel combine relies on this).
type Generator struct {
	cfg Config
	// acct, when non-nil, is charged for the per-scope dedup structure
	// and the recursive vector, making O(d_max) visible to experiments.
	// It is a high-water mark only: each scope is charged and released in
	// one step at its end, so Peak is exact and Current stays 0.
	acct *memacct.Acct
	// rowProb[c] is P_{u→} of a vertex with c one bits under the
	// noise-free model (Lemma 1); nil under NSKG.
	rowProb []float64
	// vec and set are the reusable recursive vector (Idea#1 taken across
	// scopes) and in-scope duplicate filter: the generator's own, unless
	// ShareSet lent it the calling thread's.
	vec recvec.Vector
	set *DedupSet
}

// New returns a scope generator. acct may be nil.
func New(cfg Config, acct *memacct.Acct) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, acct: acct, set: new(DedupSet)}
	if cfg.Noise == nil {
		// The very expression of skg.RowProb, evaluated once per popcount
		// class instead of once per vertex: same bits, so the same
		// binomial means and scope sizes.
		g.rowProb = make([]float64, cfg.Levels+1)
		for ones := range g.rowProb {
			g.rowProb[ones] = skg.RowProb(cfg.Seed, int64(1)<<uint(ones)-1, cfg.Levels)
		}
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// ShareSet makes g filter duplicates through set instead of a set of its
// own, so a thread that runs one generator after another (a chunk of
// this part, then a chunk of that) warms a single set's storage. A set
// holds nothing between scopes, so whose it is cannot change a draw.
func (g *Generator) ShareSet(set *DedupSet) { g.set = set }

// RowProb returns P_{u→} under the configured model.
func (g *Generator) RowProb(u int64) float64 {
	if g.rowProb == nil {
		return g.cfg.Noise.RowProb(u, g.cfg.Levels)
	}
	return g.rowProb[bits.OnesCount64(uint64(u)&(uint64(1)<<uint(g.cfg.Levels)-1))]
}

// ExpectedDegree returns E[|S(u,V)|] = |E|·P_{u→}, the partitioner's
// load estimate for scope u.
func (g *Generator) ExpectedDegree(u int64) float64 {
	return float64(g.cfg.NumEdges) * g.RowProb(u)
}

// ScopeSize draws |S(u,V)| per Theorem 1: Binomial(|E|, P_{u→}),
// approximated by N(np, np(1−p)) for large n. The draw is clamped to
// [0, |V|] because a scope has only |V| distinct cells.
func (g *Generator) ScopeSize(u int64, src *rng.Source) int64 {
	p := g.RowProb(u)
	d := src.Binomial(g.cfg.NumEdges, p)
	if nv := g.cfg.NumVertices(); d > nv {
		d = nv
	}
	return d
}

// ScopeResult carries one generated scope.
type ScopeResult struct {
	Src int64
	// Dsts are the distinct destinations, in generation order. The slice
	// aliases the buffer passed to Scope (grown by append when it is too
	// small), never storage the generator keeps: callers may retain it
	// across later Scope calls.
	Dsts []int64
	// Attempts counts stochastic edge trials including duplicates.
	Attempts int64
}

// Scope generates the full scope of source vertex u: it draws the scope
// size, rebuilds the generator's recursive vector for u once (Idea#1,
// unless ablated), and determines destinations until the size is
// reached, discarding duplicates. buf, if non-nil, is reused for the
// destination slice.
//
// The returned destinations are unique. Generation is deterministic
// given src's state.
func (g *Generator) Scope(u int64, src *rng.Source, buf []int64) ScopeResult {
	size := g.ScopeSize(u, src)
	return g.ScopeWithSize(u, size, src, buf)
}

// ScopeWithSize generates `size` distinct destinations for u (clamped
// to |V|): Scope after its size draw.
//
// Rejection sampling stops after 64·size+1024 attempts, so a scope
// whose remaining cells are too improbable to hit (near-full hub rows
// of tiny or dense graphs) comes back short of `size` rather than
// looping; Attempts records the cap. There is no fallback enumeration,
// and the cap is part of the stream: changing either changes bytes.
func (g *Generator) ScopeWithSize(u int64, size int64, src *rng.Source, buf []int64) ScopeResult {
	nv := g.cfg.NumVertices()
	if size > nv {
		size = nv
	}
	res := ScopeResult{Src: u, Dsts: buf[:0]}
	if size <= 0 {
		return res
	}
	cfg := &g.cfg
	var (
		big   *recvec.BigVector
		total float64
	)
	if cfg.HighPrecision {
		big = recvec.NewBig(cfg.Seed, u, cfg.Levels, 0)
		total = big.RowProb()
	} else {
		g.resetVector(u)
		total = g.vec.RowProb()
	}
	if total > 0 {
		// Everything the configuration decides is decided here, once per
		// scope; the loop below branches only on locals that never change
		// while it runs. Idea#1 ablated means rebuilding the vector before
		// every edge; DetermineOpt sends Production() straight to Determine.
		opts := cfg.Opts
		rebuild := !opts.ReuseVector && big == nil
		vec, set := &g.vec, g.set
		set.Begin(size, nv, !cfg.AllowDuplicates)
		// size is known before the first draw: one growth, not a doubling
		// per power of two on the way to a hub row.
		dsts, attempts, limit := slices.Grow(res.Dsts, int(size)), int64(0), maxAttempts(size)
		if big == nil && opts == recvec.Production() {
			// While n more destinations and n more attempts are both allowed,
			// the loop below would make the next n attempts whatever they hit
			// (an attempt adds at most one destination), so DrawLanes draws a
			// batch of up to n in stream order and determines it together,
			// and its results are inserted in lane order: same Dsts, Attempts
			// and state of src. Batches narrow from WideLanes to Lanes as n
			// falls, and the scalar loop takes the last n < Lanes.
			var out [recvec.WideLanes]int64
			for {
				n := vec.DrawLanes(src, min(size-int64(len(dsts)), limit-attempts), &out)
				if n == 0 {
					break
				}
				attempts += int64(n)
				for _, dst := range out[:n] {
					if set.Insert(dst) {
						dsts = append(dsts, dst)
					}
				}
			}
		}
		for int64(len(dsts)) < size && attempts < limit {
			if rebuild {
				g.resetVector(u)
			}
			x := src.UniformTo(total)
			var dst int64
			if big != nil {
				dst = big.Determine(x)
			} else {
				dst = vec.DetermineOpt(x, src, opts)
			}
			attempts++
			if set.Insert(dst) {
				dsts = append(dsts, dst)
			}
		}
		res.Dsts, res.Attempts = dsts, attempts
	}
	if g.acct != nil {
		// One charge per scope, at its high-water mark: the vector (f and
		// sigma, float64 each) plus 8 bytes per kept destination — what
		// the algorithm needs, not the capacity the dedup set retains
		// (DESIGN.md §5). Charges inside a scope only ever grew, so the
		// peak equals that of charging per insert.
		tracked := int64(cfg.Levels+1) * 16
		if !cfg.AllowDuplicates {
			tracked += int64(len(res.Dsts)) * memacct.VertexBytes
		}
		g.acct.Add(tracked)
		g.acct.Add(-tracked)
	}
	return res
}

// maxAttempts is the rejection-sampling cap of a scope of the given size.
func maxAttempts(size int64) int64 { return 64*size + 1024 }

// resetVector rebuilds the generator's recursive vector for source u.
func (g *Generator) resetVector(u int64) {
	if g.cfg.Noise != nil {
		g.vec.ResetNoisy(g.cfg.Noise, u, g.cfg.Levels)
	} else {
		g.vec.Reset(g.cfg.Seed, u, g.cfg.Levels)
	}
}
