package partition

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/avs"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// planReference is Plan as it was before the block-sum combine: it
// materialises every scope size (|V| words) and walks them one by one.
// Kept test-only as the oracle the streaming combine must reproduce.
func planReference(g *avs.Generator, masterSeed uint64, parts, binsPerPart int) []Range {
	if binsPerPart <= 0 {
		binsPerPart = 8
	}
	cfg := g.Config()
	nv := cfg.NumVertices()
	binTarget := cfg.NumEdges / int64(parts*binsPerPart)
	if binTarget < 1 {
		binTarget = 1
	}
	sizes := make([]int64, nv)
	for u := range sizes {
		sizes[u] = g.ScopeSize(int64(u), rng.NewScoped(masterSeed, uint64(u)))
	}
	type bin struct{ lo, hi, edges int64 }
	var bins []bin
	cur := bin{}
	var total int64
	for u, size := range sizes {
		cur.edges += size
		total += size
		if cur.edges >= binTarget {
			cur.hi = int64(u) + 1
			bins = append(bins, cur)
			cur = bin{lo: cur.hi}
		}
	}
	if cur.lo < nv {
		cur.hi = nv
		bins = append(bins, cur)
	}
	ranges := make([]Range, 0, parts)
	var acc, curEdges int64
	lo := int64(0)
	for _, b := range bins {
		acc += b.edges
		curEdges += b.edges
		if parts-len(ranges) == 1 {
			break
		}
		if acc >= total*int64(len(ranges)+1)/int64(parts) {
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
	return ranges
}

// TestPlanMatchesReference: the block-sum combine returns the identical
// ranges — boundaries and loads — as the materialise-everything walk,
// from graphs smaller than one block to 16 blocks, whether no bin, one
// bin or many bins close per block.
func TestPlanMatchesReference(t *testing.T) {
	gens := make(map[string]*avs.Generator)
	for scale := 8; scale <= 16; scale++ {
		gens[fmt.Sprintf("scale=%d", scale)] = gen(t, scale)
	}
	// Mostly-empty scopes: whole blocks sum to less than one bin.
	sparse, err := avs.New(avs.Config{Seed: skg.Graph500Seed, Levels: 15, NumEdges: 1 << 9, Opts: recvec.Production()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gens["sparse"] = sparse
	for gname, g := range gens {
		for _, parts := range []int{1, 2, 3, 7, 16} {
			for _, bins := range []int{0, 1, 8} {
				name := fmt.Sprintf("%s/parts=%d/bins=%d", gname, parts, bins)
				seed := uint64(31*len(gname) + parts)
				got, err := Plan(g, seed, parts, bins)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want := planReference(g, seed, parts, bins)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\n got %v\nwant %v", name, got, want)
				}
			}
		}
	}
}
