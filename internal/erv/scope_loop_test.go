package erv

import (
	"math"
	"slices"
	"testing"

	"repro/internal/memacct"
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
// destinations, the scope size drawn, which they fall short of when the
// scope ended on the attempt cap, the attempts made and, for a
// destination vector, what each uniform the draws consumed did, for
// lastBatch.
func referenceScope(g *Generator, u int64, src *rng.Source) (out []int64, size, attempts int64, draws []drawn) {
	size = g.ScopeSize(u, src)
	if size <= 0 {
		return nil, size, 0, nil
	}
	draw := g.drawDst
	if g.dstVec != nil {
		// drawDst's rejection loop, logging each uniform it consumes.
		draw = func(src *rng.Source) int64 {
			for {
				v := g.dstVec.Determine(src.UniformTo(g.dstVec.RowProb()))
				if v < g.cfg.NumDst {
					return v
				}
				draws = append(draws, outOfRange)
			}
		}
	}
	if g.cfg.AllowDuplicates {
		for int64(len(out)) < size {
			out = append(out, draw(src))
			draws = append(draws, kept)
		}
	} else {
		seen := make(map[int64]bool)
		for int64(len(out)) < size && attempts < 64*size+1024 {
			attempts++
			v := draw(src)
			if seen[v] {
				draws = append(draws, repeat)
				continue
			}
			draws = append(draws, kept)
			seen[v] = true
			out = append(out, v)
		}
	}
	if g.cfg.AllowDuplicates {
		attempts = int64(len(out))
	}
	if g.dstVec == nil {
		draws = nil
	}
	return out, size, attempts, draws
}

// drawn is what one uniform of a destination-vector draw did.
type drawn uint8

const (
	outOfRange drawn = iota // skipped uncounted
	repeat                  // an attempt that hit a kept destination
	kept                    // an attempt that kept a new destination
)

// lastBatch replays Scope's batch schedule over the reference's draws
// and returns the width of the scope's last DrawLanes call and whether
// the attempt cap rather than the size bounded it.
func lastBatch(draws []drawn, size int64) (width int64, byCap bool) {
	limit := 64*size + 1024
	var n, at, i int64
	for {
		room := min(size-n, limit-at)
		if room <= 0 {
			return width, byCap
		}
		width, byCap = min(room, recvec.WideLanes), limit-at < size-n
		for _, d := range draws[i : i+width] {
			if d != outOfRange {
				at++
			}
			if d == kept {
				n++
			}
		}
		i += width
	}
}

// TestScopeMatchesReferenceLoop is the twin of avs's test of the same
// name: Scope with its padded batches emits the destinations of the
// one-draw-per-attempt loop, in its order, after as many attempts, and
// leaves the stream where that loop leaves it. Destination ranges are
// mostly not powers of two, so out-of-range draws are skipped uncounted
// inside batches and the attempt cap falls anywhere in a batch. Out
// distributions ask for every size up to two wide batches and one — so
// a last call of every width bounded by the size — and for all of a
// range whose rare cells stay unhit, which ends on the cap. (A size
// above the range is clamped to it, so only skewed in-distributions
// leave cells unhit: about one scope in fifty ends on the cap.) Rows of
// a steep in-distribution asked for all of their range then end on the
// cap with a shortfall of a wide batch or more, so a last call of every
// width below WideLanes must be bounded by the cap while more
// destinations were still wanted.
func TestScopeMatchesReferenceLoop(t *testing.T) {
	var scopes, cappedAll, batched int
	// byCap counts batched scopes whose last call the attempt cap bounded
	// below the size, by the call's width.
	byCap := make(map[int64]int)
	// check runs scope u of cfg both ways on equal streams.
	check := func(cfg Config, u int64) {
		t.Helper()
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, got := rng.NewScoped(uint64(cfg.NumDst), uint64(u)), rng.NewScoped(uint64(cfg.NumDst), uint64(u))
		wantDsts, size, wantAttempts, draws := referenceScope(g, u, want)
		gotDsts, attempts := g.ScopeAttempts(nil, u, got)
		if !slices.Equal(gotDsts, wantDsts) || attempts != wantAttempts {
			t.Fatalf("NumDst %d in %v out %v dups %v u %d: got %d destinations after %d attempts %v, reference %d after %d %v",
				cfg.NumDst, cfg.InDist.Kind, cfg.OutDist, cfg.AllowDuplicates, u, len(gotDsts), attempts, gotDsts, len(wantDsts), wantAttempts, wantDsts)
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("NumDst %d in %v out %v dups %v u %d: stream position after the scope differs from the reference loop's",
				cfg.NumDst, cfg.InDist.Kind, cfg.OutDist, cfg.AllowDuplicates, u)
		}
		scopes++
		if size > int64(len(wantDsts)) {
			cappedAll++
		}
		if draws == nil {
			return // no destination vector: not batched
		}
		batched++
		if width, capped := lastBatch(draws, size); capped {
			byCap[width]++
		}
	}

	ins := []Dist{
		{Kind: Zipfian, Slope: -2.5},
		{Kind: Zipfian, Slope: -0.7},
		{Kind: Gaussian},
		{Kind: Uniform},
		{Kind: Empirical, Weights: []float64{5, 0, 1, 3}},
	}
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
				for u := int64(0); u < cfg.NumSrc; u++ {
					check(cfg, u)
				}
			}
		}
	}
	if cappedAll < scopes/50 || batched < scopes/5 {
		t.Errorf("of %d scopes %d ended on the attempt cap and %d had a batched phase; the sweep no longer covers them", scopes, cappedAll, batched)
	}

	for _, numDst := range []int64{37, 100, 300} {
		cfg := Config{
			NumSrc: 512, NumDst: numDst, NumEdges: numDst,
			OutDist: Dist{Kind: Uniform, Min: numDst, Max: numDst},
			InDist:  Dist{Kind: Zipfian, Slope: -2.5},
		}
		for u := int64(0); u < cfg.NumSrc; u++ {
			check(cfg, u)
		}
	}
	for width := int64(1); width < recvec.WideLanes; width++ {
		if byCap[width] == 0 {
			t.Errorf("of %d scopes none ended on a padded call of width %d bounded by the cap (by width: %v); the sweep no longer covers it", scopes, width, byCap)
		}
	}
}

// TestScopeAttemptsKeepsPrefix is the twin of avs's test of the same
// name: called, as core's executor calls it, with earlier values in dst
// that no duplicate filter could index, the append form leaves them as
// they are and appends exactly what Scope returns on the same stream,
// with the same attempts and accounting peak, whether the row fits dst's
// spare capacity or makes it grow. NumDst 5000 puts hub rows on the
// set's bitmap tier and tail rows on its table; a uniform in-distribution
// takes the one-draw-per-attempt loop.
func TestScopeAttemptsKeepsPrefix(t *testing.T) {
	base := Config{
		NumSrc: 256, NumDst: 5000, NumEdges: 20000,
		OutDist: Dist{Kind: Zipfian, Slope: -1.5},
		InDist:  Dist{Kind: Zipfian, Slope: -1.5},
	}
	uniform, dups := base, base
	uniform.InDist = Dist{Kind: Uniform}
	dups.AllowDuplicates = true
	for name, cfg := range map[string]Config{"vector": base, "uniform": uniform, "dups": dups} {
		var wantAcct, gotAcct memacct.Acct
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want.Account(&wantAcct)
		got, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got.Account(&gotAcct)
		prefix := []int64{-1, cfg.NumDst, math.MaxInt64}
		var fit, grew int
		for u := int64(0); u < cfg.NumSrc; u++ {
			wantSrc, gotSrc := rng.NewScoped(5, uint64(u)), rng.NewScoped(5, uint64(u))
			wantDsts, wantAttempts := want.ScopeAttempts(nil, u, wantSrc)
			dst := append(make([]int64, 0, len(prefix)+16), prefix...)
			out, attempts := got.ScopeAttempts(dst, u, gotSrc)
			if !slices.Equal(out[:len(prefix)], prefix) || !slices.Equal(dst, prefix) {
				t.Fatalf("%s u %d: prefix came back as %v, dst holds %v, want %v", name, u, out[:len(prefix)], dst, prefix)
			}
			if !slices.Equal(out[len(prefix):], wantDsts) || attempts != wantAttempts {
				t.Fatalf("%s u %d: appended %d destinations after %d attempts, want %d after %d",
					name, u, len(out)-len(prefix), attempts, len(wantDsts), wantAttempts)
			}
			if gotSrc.Uint64() != wantSrc.Uint64() || gotAcct.Peak() != wantAcct.Peak() {
				t.Fatalf("%s u %d: stream position or accounting peak (%d, want %d) differs", name, u, gotAcct.Peak(), wantAcct.Peak())
			}
			if cap(out) > cap(dst) {
				grew++
			} else {
				fit++
			}
		}
		if fit == 0 || grew == 0 || wantAcct.Peak() == 0 {
			t.Fatalf("%s: %d rows fit dst, %d made it grow, peak %d: want some of each and a charge", name, fit, grew, wantAcct.Peak())
		}
	}
}
