// Package partition implements TrillionG's AVS-level workload
// partitioning (Section 5, Figure 6): vertex scopes are combined into
// bins of roughly |E|/p expected edges, bin summaries are gathered at a
// master, repartitioned into p contiguous groups of nearly equal load,
// and scattered back — so every worker generates about the same number
// of edges with no shuffling at all.
//
// Scope sizes are drawn from each scope's private random stream (the
// first draws of that stream). Because generation later re-derives the
// same stream from (master seed, vertex), the planned sizes are exactly
// the generated sizes — the plan ships only O(bins) numbers, mirroring
// the paper's observation that the gather step is tiny.
package partition

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/avs"
	"repro/internal/rng"
)

// Range is a contiguous vertex range [Lo, Hi) with its planned load.
type Range struct {
	Lo, Hi int64
	// Edges is the summed planned scope size of the range.
	Edges int64
}

// Plan partitions the generator's vertex space into exactly `parts`
// contiguous ranges of near-equal planned load. binsPerPart controls
// combine granularity (Figure 6 uses 1; larger values trade a bigger
// gather for finer balance; ≤ 0 selects the default of 8).
func Plan(g *avs.Generator, masterSeed uint64, parts, binsPerPart int) ([]Range, error) {
	if parts < 1 {
		return nil, fmt.Errorf("partition: parts %d < 1", parts)
	}
	if binsPerPart <= 0 {
		binsPerPart = 8
	}
	cfg := g.Config()
	nv := cfg.NumVertices()
	if int64(parts) > nv {
		return nil, fmt.Errorf("partition: %d parts exceed %d vertices", parts, nv)
	}

	// Combine: walk all scopes in vertex order, drawing each scope's
	// size from its private stream, and close a bin whenever it reaches
	// the target. Sizes are scope-seeded and bin boundaries depend only
	// on the size sequence, so the walk can be cut up freely: a parallel
	// pass keeps one sum per block of sizeBlock vertices, and the
	// sequential walk steps over whole blocks, re-drawing the sizes of a
	// block only when a bin closes inside it (its sum reaches the open
	// bin's remainder). Memory is |V|/sizeBlock + sizeBlock words, not
	// the |V| words of a materialised size vector, for at most twice
	// the draws.
	binTarget := cfg.NumEdges / int64(parts*binsPerPart)
	if binTarget < 1 {
		binTarget = 1
	}
	sizeOf := func(src *rng.Source, u int64) int64 {
		src.Reseed(masterSeed, uint64(u))
		return g.ScopeSize(u, src)
	}
	sums := make([]int64, (nv+sizeBlock-1)/sizeBlock)
	parallelRanges(int64(len(sums)), func(lo, hi int64) {
		var src rng.Source
		for b := lo; b < hi; b++ {
			for u, end := b*sizeBlock, min((b+1)*sizeBlock, nv); u < end; u++ {
				sums[b] += sizeOf(&src, u)
			}
		}
	})
	type bin struct {
		lo, hi int64 // [lo, hi)
		edges  int64
	}
	var bins []bin
	cur := bin{lo: 0}
	var total int64
	sizes := make([]int64, min(sizeBlock, nv))
	for b, sum := range sums {
		total += sum
		if cur.edges+sum < binTarget {
			cur.edges += sum
			continue
		}
		base := int64(b) * sizeBlock
		block := sizes[:min(sizeBlock, nv-base)]
		parallelRanges(int64(len(block)), func(lo, hi int64) {
			var src rng.Source
			for i := lo; i < hi; i++ {
				block[i] = sizeOf(&src, base+i)
			}
		})
		for i, size := range block {
			cur.edges += size
			if cur.edges >= binTarget {
				cur.hi = base + int64(i) + 1
				bins = append(bins, cur)
				cur = bin{lo: cur.hi}
			}
		}
	}
	if cur.lo < nv {
		cur.hi = nv
		bins = append(bins, cur)
	}

	// Gather + repartition: cut the ordered bin list into `parts`
	// contiguous groups, closing group i once the running total reaches
	// the proportional target total·(i+1)/parts. The final group always
	// extends to |V|; trailing empty ranges pad out to exactly `parts`.
	ranges := make([]Range, 0, parts)
	var acc, curEdges int64
	lo := int64(0)
	for _, b := range bins {
		acc += b.edges
		curEdges += b.edges
		if parts-len(ranges) == 1 {
			break // the last range absorbs everything that remains
		}
		target := total * int64(len(ranges)+1) / int64(parts)
		if acc >= target {
			ranges = append(ranges, Range{Lo: lo, Hi: b.hi, Edges: curEdges})
			lo = b.hi
			curEdges = 0
		}
	}
	lastEdges := total
	for _, r := range ranges {
		lastEdges -= r.Edges
	}
	ranges = append(ranges, Range{Lo: lo, Hi: nv, Edges: lastEdges})
	for len(ranges) < parts {
		ranges = append(ranges, Range{Lo: nv, Hi: nv})
	}
	return ranges, nil
}

// sizeBlock is the number of consecutive scopes whose sizes the combine
// step keeps only as a sum.
const sizeBlock = 4096

// parallelRanges cuts [0, n) into GOMAXPROCS contiguous slices, calls
// fn(lo, hi) on each from its own goroutine, and waits for all.
func parallelRanges(n int64, fn func(lo, hi int64)) {
	workers := min(int64(runtime.GOMAXPROCS(0)), n)
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}
