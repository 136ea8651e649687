package erv

import (
	"slices"
	"testing"

	"repro/internal/recvec"
	"repro/internal/rng"
)

// generate is the collection loop core's part executor runs for a
// block, kept as the tests' reference: every row in order, drawn from
// the stream of (seed, u), non-empty scopes emitted with range-local
// ids. It returns the number of edges drawn.
func generate(g *Generator, seed uint64, emit func(src int64, dsts []int64) error) (int64, error) {
	var total int64
	var buf []int64
	var src rng.Source
	for u := int64(0); u < g.cfg.NumSrc; u++ {
		src.Reseed(seed, uint64(u))
		buf = g.Scope(u, &src, buf)
		total += int64(len(buf))
		if emit != nil && len(buf) > 0 {
			if err := emit(u, buf); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// referenceScope is Scope as it stood before the lane-batched descent:
// one drawDst per attempt, with a Go map for duplicates. It returns the
// destinations and the scope size drawn, which they fall short of when
// the scope ended on the attempt cap.
func referenceScope(g *Generator, u int64, src *rng.Source) (out []int64, size int64) {
	size = g.ScopeSize(u, src)
	if size <= 0 {
		return nil, size
	}
	if g.cfg.AllowDuplicates {
		for int64(len(out)) < size {
			out = append(out, g.drawDst(src))
		}
		return out, size
	}
	seen := make(map[int64]bool)
	attempts := int64(0)
	for int64(len(out)) < size && attempts < 64*size+1024 {
		attempts++
		if v := g.drawDst(src); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, size
}

// TestScopeMatchesReferenceLoop is the twin of avs's test of the same
// name: Scope with its wide and narrow batches and its scalar tail emits
// the destinations of the one-draw-per-attempt loop, in its order, and
// leaves the stream where that loop leaves it. Destination ranges are
// mostly not powers of two, so out-of-range draws are skipped uncounted
// inside batches and the attempt cap falls anywhere in a batch. Out
// distributions ask for every size up to two wide batches and one — so
// every hand-over from WideLanes to Lanes to the scalar loop — and for
// all of a range whose rare cells stay unhit, which ends on the cap with
// a shortfall in each tier's range. (A size above the range is clamped
// to it, so only skewed in-distributions leave cells unhit: about one
// scope in fifty ends on the cap.)
func TestScopeMatchesReferenceLoop(t *testing.T) {
	ins := []Dist{
		{Kind: Zipfian, Slope: -2.5},
		{Kind: Zipfian, Slope: -0.7},
		{Kind: Gaussian},
		{Kind: Uniform},
		{Kind: Empirical, Weights: []float64{5, 0, 1, 3}},
	}
	var scopes, cappedAll, batched int
	// capped counts batched scopes that ended on the cap by the batch
	// width their final shortfall admits, 1 for the scalar tail.
	capped := make(map[int64]int)
	for _, numDst := range []int64{1, 3, 5, 16, 37, 100, 1000, 4097} {
		outs := []Dist{
			{Kind: Uniform, Min: numDst - 2, Max: numDst},
			{Kind: Zipfian, Slope: -1.2},
		}
		for size := int64(0); size <= 2*recvec.WideLanes+1; size++ {
			outs = append(outs, Dist{Kind: Uniform, Min: size, Max: size})
		}
		for i, in := range ins {
			for j, out := range outs {
				if out.Min < 0 || out.Min > 100 {
					continue // no negative degrees; keep 64·|range| attempts per row small
				}
				cfg := Config{
					NumSrc: 16, NumDst: numDst, NumEdges: numDst/2 + 1,
					OutDist: out, InDist: in,
					AllowDuplicates: (i+j)%5 == 4,
				}
				g, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for u := int64(0); u < cfg.NumSrc; u++ {
					want, got := rng.NewScoped(uint64(numDst), uint64(u)), rng.NewScoped(uint64(numDst), uint64(u))
					wantDsts, size := referenceScope(g, u, want)
					gotDsts := g.Scope(u, got, nil)
					if !slices.Equal(gotDsts, wantDsts) {
						t.Fatalf("NumDst %d in %v out %v dups %v u %d: got %d destinations %v, reference %d %v",
							numDst, in.Kind, out, cfg.AllowDuplicates, u, len(gotDsts), gotDsts, len(wantDsts), wantDsts)
					}
					if got.Uint64() != want.Uint64() {
						t.Fatalf("NumDst %d in %v out %v dups %v u %d: stream position after the scope differs from the reference loop's",
							numDst, in.Kind, out, cfg.AllowDuplicates, u)
					}
					scopes++
					short := size - int64(len(wantDsts))
					if short > 0 {
						cappedAll++
					}
					if g.dstVec == nil || cfg.AllowDuplicates {
						continue
					}
					if size >= recvec.Lanes {
						batched++
					}
					switch {
					case short >= recvec.WideLanes:
						capped[recvec.WideLanes]++
					case short >= recvec.Lanes:
						capped[recvec.Lanes]++
					case short > 0:
						capped[1]++
					}
				}
			}
		}
	}
	if cappedAll < scopes/50 || batched < scopes/5 {
		t.Errorf("of %d scopes %d ended on the attempt cap and %d had a batched phase; the sweep no longer covers them", scopes, cappedAll, batched)
	}
	for _, tier := range []int64{recvec.WideLanes, recvec.Lanes, 1} {
		if capped[tier] == 0 {
			t.Errorf("of %d scopes none ended on the attempt cap in tier %d (capped by tier: %v); the sweep no longer covers it", scopes, tier, capped)
		}
	}
}
