package experiments

import (
	"math/bits"
	"time"

	"repro/internal/avs"
	"repro/internal/recvec"
	"repro/internal/rng"
)

// search is how a sparse descent finds its next 1 bit.
type search int

const (
	// scan is Determine's one downward scan shared by every step: the
	// production descent.
	scan search = iota
	// binary and linear search the whole vector afresh at every step, as
	// Theorem 2 is written (Table 2 compares the two).
	binary
	linear
)

// variant is one ablation of Section 4.3's three ideas. The generators
// draw only with all three on; the other variants exist to be measured
// by Figure 13 and Table 2.
type variant struct {
	reuse  bool // Idea#1: one vector per scope, not one per attempt
	sparse bool // Idea#2: recurse on the destination's 1 bits only
	single bool // Idea#3: translate one uniform instead of redrawing
	search search
}

// work is what a variant is measured in: vector builds, uniforms drawn
// to place destinations, and recursion steps (one subtract-and-divide or
// one redraw each; a full descent steps through every level).
type work struct {
	builds, uniforms, steps int64
}

// descend maps x, uniform on [0, vec.RowProb()), to a destination under
// v, drawing any redraw from src and counting its work into w. Every
// variant draws from the same distribution (ablation_test.go); those
// with Idea#3 on are the same map as Determine.
func (v variant) descend(vec *recvec.Vector, x float64, src *rng.Source, w *work) int64 {
	var dst int64
	if !v.sparse {
		for k := vec.Levels() - 1; k >= 0; k-- {
			w.steps++
			fk := vec.At(k)
			took := x >= fk
			if took {
				dst |= 1 << uint(k)
			}
			switch {
			case !v.single:
				// Redraw within the kept half, as RMAT draws once per level.
				x = src.UniformTo(fk)
				w.uniforms++
			case took:
				x = (x - fk) / vec.Sigma(k)
			}
		}
		return dst
	}
	if v.single && v.search == scan {
		dst = vec.Determine(x)
		w.steps += int64(bits.OnesCount64(uint64(dst)))
		return dst
	}
	prev := vec.Levels()
	for x >= vec.At(0) && x > 0 {
		var k int
		if v.search == linear {
			k = stepLinear(vec, x)
		} else {
			k = stepBinary(vec, x)
		}
		if k >= prev {
			k = prev - 1
			if k < 0 {
				break
			}
		}
		prev = k
		dst |= 1 << uint(k)
		w.steps++
		if v.single {
			x = (x - vec.At(k)) / vec.Sigma(k)
		} else {
			// Given the bit, the remainder is uniform on [0, f[k]):
			// redrawing it is distributionally identical.
			x = src.UniformTo(vec.At(k))
			w.uniforms++
		}
	}
	return dst
}

// stepBinary returns the largest k with f[k] ≤ x, step (2) of Theorem 2,
// by binary search of the vector: O(log levels) per step. The caller
// guarantees f[0] ≤ x.
func stepBinary(vec *recvec.Vector, x float64) int {
	lo, hi := 0, vec.Levels()
	for lo < hi {
		mid := (lo + hi) / 2
		if vec.At(mid) <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// stepLinear is stepBinary by linear scan from the bottom, which can win
// on vectors this short (Table 2).
func stepLinear(vec *recvec.Vector, x float64) int {
	k := 0
	for k < vec.Levels() && vec.At(k+1) <= x {
		k++
	}
	return k
}

// ablate draws every scope of g's graph under v and counts the work.
// Scope u is seeded as the part executor seeds it, src.Reseed(masterSeed,
// u), and sized by g.ScopeSize; its destinations are rejection-sampled
// up to avs's attempt cap, 64·size+1024, through an avs.DedupSet begun
// and ended as ScopeWithSize begins and ends it. So a variant draws the
// stream core.GenerateSeq drew when it could still run one, and the
// all-on variant draws the production stream.
func (v variant) ablate(g *avs.Generator, masterSeed uint64) Fig13Row {
	cfg := g.Config()
	nv, reach := cfg.NumVertices(), g.MaxExpectedDegree()
	var (
		vec  recvec.Vector
		set  avs.DedupSet
		dsts []int64 // the scope's admitted destinations, which end it
		src  rng.Source
		w    work
		row  = Fig13Row{Idea1: v.reuse, Idea2: v.sparse, Idea3: v.single}
	)
	build := func(u int64) {
		w.builds++
		if cfg.Noise != nil {
			vec.ResetNoisy(cfg.Noise, u, cfg.Levels)
		} else {
			vec.Reset(cfg.Seed, u, cfg.Levels)
		}
	}
	start := time.Now()
	for u := int64(0); u < nv; u++ {
		src.Reseed(masterSeed, uint64(u))
		size := g.ScopeSize(u, &src)
		if size <= 0 {
			continue
		}
		row.Scopes++
		build(u)
		total := vec.RowProb()
		if total <= 0 {
			continue
		}
		set.Begin(size, nv, reach, !cfg.AllowDuplicates)
		dsts = dsts[:0]
		var attempts int64
		for limit := 64*size + 1024; int64(len(dsts)) < size && attempts < limit; attempts++ {
			if !v.reuse {
				build(u)
			}
			w.uniforms++
			if dst := v.descend(&vec, src.UniformTo(total), &src, &w); set.Insert(dst) {
				dsts = append(dsts, dst)
			}
		}
		set.End(dsts)
		row.Edges += int64(len(dsts))
		row.Attempts += attempts
	}
	row.Elapsed = time.Since(start)
	row.Builds, row.Uniforms, row.Steps = w.builds, w.uniforms, w.steps
	return row
}
