package avs

import (
	"math"
	"slices"
	"testing"

	"repro/internal/memacct"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// randomSeed draws a valid seed matrix; zeroAt in [0, 4) zeroes one
// entry (a degenerate row or column: f[k] = 0, σ = +Inf levels).
func randomSeed(src *rng.Source, zeroAt int64) skg.Seed {
	w := [4]float64{src.Float64() + 0.05, src.Float64() + 0.05, src.Float64() + 0.05, src.Float64() + 0.05}
	if zeroAt < 4 {
		w[zeroAt] = 0
	}
	sum := w[0] + w[1] + w[2] + w[3]
	k := skg.Seed{A: w[0] / sum, B: w[1] / sum, C: w[2] / sum}
	k.D = math.Max(0, 1-k.A-k.B-k.C)
	return k
}

// referenceScope is the scope loop as it stood before the vector, the
// descent and the dedup set were rewritten: a fresh vector per scope, a
// binary search per recursion step (SparseRecursion+SingleRandom without
// ReuseVector reaches recvec's per-step search, not Determine) and a Go
// map for duplicates. It returns the destinations, the attempt count and
// the bytes the scope charges to memacct.
func referenceScope(cfg Config, u, size int64, src *rng.Source) ([]int64, int64, int64) {
	if nv := cfg.NumVertices(); size > nv {
		size = nv
	}
	var vec *recvec.Vector
	if cfg.Noise != nil {
		vec = recvec.NewNoisy(cfg.Noise, u, cfg.Levels)
	} else {
		vec = recvec.New(cfg.Seed, u, cfg.Levels)
	}
	tracked := int64(cfg.Levels+1) * 16
	total := vec.RowProb()
	if total <= 0 {
		return nil, 0, tracked
	}
	var (
		dsts     []int64
		attempts int64
		seen     = make(map[int64]struct{})
		perStep  = recvec.Options{SparseRecursion: true, SingleRandom: true}
	)
	for int64(len(dsts)) < size && attempts < 64*size+1024 {
		dst := vec.DetermineOpt(src.UniformTo(total), src, perStep)
		attempts++
		if _, dup := seen[dst]; dup && !cfg.AllowDuplicates {
			continue
		}
		seen[dst] = struct{}{}
		dsts = append(dsts, dst)
	}
	if !cfg.AllowDuplicates {
		tracked += 8 * int64(len(dsts))
	}
	return dsts, attempts, tracked
}

// sameAsReference runs one scope through g and through referenceScope
// on equal streams and requires equal destinations in equal order, equal
// attempts and an equal next random value: the loop drew exactly as many
// values as the reference, no more. It returns the reference's tracked
// bytes, attempts and number of destinations kept.
func sameAsReference(t *testing.T, g *Generator, u, size int64, stream uint64) (tracked, attempts, kept int64) {
	t.Helper()
	cfg := g.Config()
	want, got := rng.New(stream), rng.New(stream)
	wantDsts, wantAttempts, tracked := referenceScope(cfg, u, size, want)
	res := g.ScopeWithSize(u, size, got, nil)
	if res.Attempts != wantAttempts || !slices.Equal(res.Dsts, wantDsts) {
		t.Fatalf("levels %d u %d size %d noisy %v dups %v: got %d dsts / %d attempts, reference %d / %d",
			cfg.Levels, u, size, cfg.Noise != nil, cfg.AllowDuplicates, len(res.Dsts), res.Attempts, len(wantDsts), wantAttempts)
	}
	if got.Uint64() != want.Uint64() {
		t.Fatalf("levels %d u %d size %d: stream position after the scope differs from the reference loop's", cfg.Levels, u, size)
	}
	return tracked, wantAttempts, int64(len(wantDsts))
}

// TestScopeMatchesReferenceLoop: the scope loop with its reused vector,
// lane-batched descent plus scalar tail and flat dedup set emits the
// stream of the loop it replaced — identical destinations in identical
// order after identical attempt counts, an identical accounting peak
// and an identical stream position afterwards — over random seed
// matrices (some with a zero entry), 1–40 levels, NSKG on and off, both
// orientations, AllowDuplicates, every size around the batch width, and
// sizes that land in every dedup tier including the size == |V| clamp.
func TestScopeMatchesReferenceLoop(t *testing.T) {
	src := rng.New(12)
	tiers := make(map[dedupTier]int)
	for i := 0; i < 240; i++ {
		levels := i%40 + 1
		nv := int64(1) << uint(levels)
		cfg := Config{
			Seed:            randomSeed(src, src.Int63n(12)),
			Levels:          levels,
			NumEdges:        16 * nv,
			Opts:            recvec.Production(),
			AllowDuplicates: i%7 == 3,
		}
		if noise := skg.MaxNoise(cfg.Seed); i%2 == 1 && noise > 0 {
			ns, err := skg.NewNoise(cfg.Seed, levels, noise/2, src)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Noise = ns
		}
		if i%3 == 2 { // AVS-I: the column scope of K is the row scope of Kᵀ
			cfg.Seed = cfg.Seed.Transpose()
			if cfg.Noise != nil {
				cfg.Noise = cfg.Noise.Transpose()
			}
		}
		var acct memacct.Acct
		g, err := New(cfg, &acct)
		if err != nil {
			t.Fatal(err)
		}

		// Every size up to two wide batches and one — so every hand-over
		// from WideLanes to Lanes to the scalar loop — sizes on both sides
		// of the table/bitmap boundary |V|/64, and more than |V| (clamped
		// to it).
		sizes := []int64{16, 700, nv/64 + 1, nv + 5}
		for size := int64(1); size <= 2*recvec.WideLanes+1; size++ {
			sizes = append(sizes, size)
		}
		var wantPeak int64
		for _, size := range sizes {
			if size > 1<<13 {
				continue // keep hub-sized scopes of wide graphs out of a unit test
			}
			tracked, _, _ := sameAsReference(t, g, src.Int63n(nv), size, src.Uint64())
			wantPeak = max(wantPeak, tracked)
			tiers[g.set.tier]++
		}
		if acct.Peak() != wantPeak || acct.Current() != 0 {
			t.Fatalf("case %d: accounting peak %d cur %d, reference peak %d", i, acct.Peak(), acct.Current(), wantPeak)
		}
	}
	for _, tier := range []dedupTier{tierNone, tierBitmap, tierTable} {
		if tiers[tier] < 20 {
			t.Errorf("dedup tier %d ran only %d scopes; the sweep no longer covers it", tier, tiers[tier])
		}
	}

	// Rows asked for all of |V| that end on the attempt cap instead, one
	// per tier the cap can fall in. The cap is a multiple of WideLanes, so
	// it falls in the tier whose width the final shortfall admits. A hub
	// row whose rarest cells stay unhit ends short by a few, in a tier that
	// depends on the stream. Under noBeta a row reaches 2^popcount(u)
	// cells: a row with one of 16 ends short by at least WideLanes (wide
	// batches), a row with four of eight by Lanes (narrow batches), and a
	// row with two of four by less (the scalar tail).
	noBeta := skg.Seed{A: 0.6, B: 0, C: 0.3, D: 0.1}
	for _, tc := range []struct {
		seed   skg.Seed
		levels int
		u      int64
		tier   int64 // batch width at the cap, 1 for the scalar tail; 0 unchecked
	}{
		{skg.Graph500Seed, 8, 0, 0},
		{noBeta, 4, 0, recvec.WideLanes},
		{noBeta, 3, 0b011, recvec.Lanes},
		{noBeta, 2, 1, 1},
	} {
		nv := int64(1) << uint(tc.levels)
		g, err := New(Config{Seed: tc.seed, Levels: tc.levels, NumEdges: 128 * nv, Opts: recvec.Production()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for stream := uint64(0); stream < 8; stream++ {
			_, attempts, kept := sameAsReference(t, g, tc.u, nv, stream)
			if attempts != maxAttempts(nv) {
				t.Errorf("seed %v levels %d u %d: stopped after %d attempts, want the cap %d", tc.seed, tc.levels, tc.u, attempts, maxAttempts(nv))
			}
			tier := int64(1)
			if short := nv - kept; short >= recvec.WideLanes {
				tier = recvec.WideLanes
			} else if short >= recvec.Lanes {
				tier = recvec.Lanes
			}
			if tc.tier != 0 && tier != tc.tier {
				t.Errorf("seed %v levels %d u %d: %d of %d cells kept, so the cap fell in tier %d, want %d", tc.seed, tc.levels, tc.u, kept, nv, tier, tc.tier)
			}
		}
	}
}

// TestRowProbTableMatchesSKG: the popcount table returns the bits
// skg.RowProb returns, so binomial means and scope sizes cannot move.
func TestRowProbTableMatchesSKG(t *testing.T) {
	for _, levels := range []int{1, 7, 18, 40} {
		cfg := baseConfig(levels)
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(uint64(levels))
		for i := 0; i < 2000; i++ {
			u := src.Int63n(cfg.NumVertices())
			got, want := g.RowProb(u), skg.RowProb(cfg.Seed, u, levels)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("levels %d u %d: table %v, skg.RowProb %v", levels, u, got, want)
			}
		}
	}
}

// TestScopeDstsNeverAliasGenerator: callers keep Dsts across later Scope
// calls (bench sampling, the server pipeline), so a result must alias
// the caller's buffer only.
func TestScopeDstsNeverAliasGenerator(t *testing.T) {
	g, err := New(baseConfig(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Scope(0, rng.NewScoped(1, 0), nil)
	keep := slices.Clone(first.Dsts)
	for u := int64(1); u < 64; u++ {
		g.Scope(u, rng.NewScoped(1, uint64(u)), nil)
	}
	if !slices.Equal(first.Dsts, keep) {
		t.Fatal("a later Scope call overwrote an earlier result obtained with buf == nil")
	}
}

// TestScopeSteadyStateAllocs: with a reused buffer and a reseeded
// Source, a warmed-up worker generates scopes without touching the
// heap — vector, dedup set and destination buffer are all reused.
func TestScopeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	noisy := baseConfig(14)
	ns, err := skg.NewNoise(noisy.Seed, noisy.Levels, 0.05, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	noisy.Noise = ns
	for name, cfg := range map[string]Config{"classic": baseConfig(14), "nskg": noisy} {
		var acct memacct.Acct
		g, err := New(cfg, &acct)
		if err != nil {
			t.Fatal(err)
		}
		var (
			src rng.Source
			buf []int64
			u   int64
		)
		// Rows 0..255 hold the hub and both dedup tiers of this scale.
		pass := func() {
			for u = 0; u < 256; u++ {
				src.Reseed(77, uint64(u))
				buf = g.Scope(u, &src, buf).Dsts
			}
		}
		pass() // warm-up: grows buf, the vector and the dedup storage
		if n := testing.AllocsPerRun(5, pass); n != 0 {
			t.Errorf("%s: %v allocations per 256 steady-state scopes, want 0", name, n)
		}
	}
}
