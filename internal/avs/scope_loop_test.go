package avs

import (
	"math"
	"math/bits"
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
// binary search per recursion step (referenceDetermine) and a Go map for
// duplicates. Under CommunityV1 it is the loop those blocks drew with
// before they kept their vector: a fresh vector before every attempt and
// a uniform redrawn at every level. It returns the destinations, one
// flag per attempt (true where it kept a destination) and the bytes the
// scope charges to memacct.
func referenceScope(cfg Config, u, size int64, src *rng.Source) ([]int64, []bool, int64) {
	if nv := cfg.NumVertices(); size > nv {
		size = nv
	}
	build := func() *recvec.Vector {
		if cfg.Noise != nil {
			return recvec.NewNoisy(cfg.Noise, u, cfg.Levels)
		}
		return recvec.New(cfg.Seed, u, cfg.Levels)
	}
	vec := build()
	tracked := int64(cfg.Levels+1) * 16
	total := vec.RowProb()
	if total <= 0 {
		return nil, nil, tracked
	}
	var (
		dsts []int64
		kept []bool
		seen = make(map[int64]struct{})
	)
	for int64(len(dsts)) < size && int64(len(kept)) < 64*size+1024 {
		var dst int64
		if cfg.CommunityV1 {
			vec = build()
			x := src.UniformTo(total)
			for k := cfg.Levels - 1; k >= 0; k-- {
				if x >= vec.At(k) {
					dst |= 1 << uint(k)
					x = src.UniformTo(vec.At(k))
				} else {
					x = src.UniformTo(vec.At(k))
				}
			}
		} else {
			dst = referenceDetermine(vec, src.UniformTo(total))
		}
		_, dup := seen[dst]
		dup = dup && !cfg.AllowDuplicates
		kept = append(kept, !dup)
		if dup {
			continue
		}
		seen[dst] = struct{}{}
		dsts = append(dsts, dst)
	}
	if !cfg.AllowDuplicates {
		tracked += 8 * int64(len(dsts))
	}
	return dsts, kept, tracked
}

// lastBatch replays the production loop's batch schedule over the
// reference's attempts, kept as referenceScope reports them, and returns
// the width of the scope's last DrawLanes call and whether the attempt
// cap rather than the size bounded it.
func lastBatch(kept []bool, size int64) (width int64, byCap bool) {
	limit := maxAttempts(size)
	var n, at int64
	for {
		room := min(size-n, limit-at)
		if room <= 0 {
			return width, byCap
		}
		width, byCap = min(room, recvec.WideLanes), limit-at < size-n
		for _, k := range kept[at : at+width] {
			if k {
				n++
			}
		}
		at += width
	}
}

// referenceDetermine is Theorem 2 as first written: a fresh binary search
// of the vector per recursion step for the largest k with f[k] ≤ x,
// clamped below the previous step's index. It shares nothing with
// Determine's one downward scan.
func referenceDetermine(vec *recvec.Vector, x float64) int64 {
	var dst int64
	prev := vec.Levels()
	for x >= vec.At(0) && x > 0 {
		lo, hi := 0, vec.Levels()
		for lo < hi {
			mid := (lo + hi) / 2
			if vec.At(mid) <= x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		k := lo - 1
		if k >= prev {
			k = prev - 1
			if k < 0 {
				break
			}
		}
		prev = k
		dst |= 1 << uint(k)
		x = (x - vec.At(k)) / vec.Sigma(k)
	}
	return dst
}

// sameAsReference runs one scope through g and through referenceScope
// on equal streams and requires equal destinations in equal order, equal
// attempts and an equal next random value: the loop drew exactly as many
// values as the reference, no more. It returns the reference's tracked
// bytes and its per-attempt kept flags.
func sameAsReference(t *testing.T, g *Generator, u, size int64, stream uint64) (tracked int64, kept []bool) {
	t.Helper()
	cfg := g.Config()
	want, got := rng.New(stream), rng.New(stream)
	wantDsts, kept, tracked := referenceScope(cfg, u, size, want)
	res := g.ScopeWithSize(u, size, got, nil)
	if res.Attempts != int64(len(kept)) || !slices.Equal(res.Dsts, wantDsts) {
		t.Fatalf("levels %d u %d size %d noisy %v dups %v: got %d dsts / %d attempts, reference %d / %d",
			cfg.Levels, u, size, cfg.Noise != nil, cfg.AllowDuplicates, len(res.Dsts), res.Attempts, len(wantDsts), len(kept))
	}
	if got.Uint64() != want.Uint64() {
		t.Fatalf("levels %d u %d size %d v1 %v: stream position after the scope differs from the reference loop's", cfg.Levels, u, size, cfg.CommunityV1)
	}
	return tracked, kept
}

// TestScopeMatchesReferenceLoop: the scope loop with its reused vector,
// padded lane-batched descent and flat dedup set emits the
// stream of the loop it replaced — identical destinations in identical
// order after identical attempt counts, an identical accounting peak
// and an identical stream position afterwards — over random seed
// matrices (some with a zero entry), 1–40 levels, NSKG on and off, both
// orientations, AllowDuplicates, every size around the batch width, and
// sizes that land in every dedup tier including the size == |V| clamp.
// CommunityV1 is held to its own reference over the same cases.
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
		var acct, acctV1 memacct.Acct
		g, err := New(cfg, &acct)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CommunityV1 = true
		gV1, err := New(cfg, &acctV1)
		if err != nil {
			t.Fatal(err)
		}

		// Every size up to two wide batches and one — so a padded last
		// call of every width, bounded by the size — sizes on both sides
		// of the table/bitmap boundary |V|/64, and more than |V| (clamped
		// to it).
		sizes := []int64{16, 700, nv/64 + 1, nv + 5}
		for size := int64(1); size <= 2*recvec.WideLanes+1; size++ {
			sizes = append(sizes, size)
		}
		var wantPeak, wantPeakV1 int64
		for _, size := range sizes {
			if size > 1<<13 {
				continue // keep hub-sized scopes of wide graphs out of a unit test
			}
			u, stream := src.Int63n(nv), src.Uint64()
			tracked, _ := sameAsReference(t, g, u, size, stream)
			wantPeak = max(wantPeak, tracked)
			tiers[g.set.tier]++
			tracked, _ = sameAsReference(t, gV1, u, size, stream)
			wantPeakV1 = max(wantPeakV1, tracked)
		}
		if acct.Peak() != wantPeak || acct.Current() != 0 || acctV1.Peak() != wantPeakV1 || acctV1.Current() != 0 {
			t.Fatalf("case %d: accounting peak %d cur %d, reference peak %d; v1 peak %d cur %d, reference %d",
				i, acct.Peak(), acct.Current(), wantPeak, acctV1.Peak(), acctV1.Current(), wantPeakV1)
		}
	}
	for _, tier := range []dedupTier{tierNone, tierBitmap, tierTable} {
		if tiers[tier] < 20 {
			t.Errorf("dedup tier %d ran only %d scopes; the sweep no longer covers it", tier, tiers[tier])
		}
	}

	// Rows that end on the attempt cap. A hub row asked for all of |V|
	// ends short by the rarest cells. Under noBeta a row reaches only
	// 2^popcount(u) cells, so a larger size leaves a fixed shortfall once
	// those are found, the batches narrow to it, and the size and the
	// stream decide where the cap falls in the last one: each width the
	// cap can cut must occur as a padded call bounded by the cap, not by
	// the size.
	noBeta := skg.Seed{A: 0.6, B: 0, C: 0.3, D: 0.1}
	byCap := make(map[int64]int)
	for _, tc := range []struct {
		seed   skg.Seed
		levels int
		us     []int64
		sizes  []int64 // nil: all of |V|
	}{
		{skg.Graph500Seed, 8, []int64{0}, nil},
		{noBeta, 4, []int64{0, 1, 3, 7}, capSizes},
		{noBeta, 10, []int64{0, 5, 7, 31, 0b11_0110_0010}, capSizes},
	} {
		nv := int64(1) << uint(tc.levels)
		cfg := Config{Seed: tc.seed, Levels: tc.levels, NumEdges: 128 * nv}
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CommunityV1 = true
		gV1, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes := tc.sizes
		if sizes == nil {
			sizes = []int64{nv}
		}
		for _, u := range tc.us {
			for _, size := range sizes {
				if tc.sizes != nil && (size <= 1<<bits.OnesCount64(uint64(u)) || size > nv) {
					continue // the row can fill it, or |V| clamps it
				}
				// A last call the cap cuts to width w needs a shortfall
				// above w and below WideLanes (batches stay full otherwise),
				// and lands on w about once in shortfall streams, so rows
				// whose shortfall lies between sixteen and WideLanes run four
				// times the streams (CommunityV1, which draws no batches,
				// only the first eight).
				streams := uint64(8)
				if short := size - 1<<bits.OnesCount64(uint64(u)); tc.sizes != nil && short > 16 && short < recvec.WideLanes {
					streams = 32
				}
				for stream := range streams {
					if stream < 8 {
						if _, kept := sameAsReference(t, gV1, u, size, stream); int64(len(kept)) != maxAttempts(size) {
							t.Errorf("v1 seed %v levels %d u %d size %d: stopped after %d attempts, want the cap %d", tc.seed, tc.levels, u, size, len(kept), maxAttempts(size))
						}
					}
					_, kept := sameAsReference(t, g, u, size, stream)
					if int64(len(kept)) != maxAttempts(size) {
						t.Errorf("seed %v levels %d u %d size %d: stopped after %d attempts, want the cap %d", tc.seed, tc.levels, u, size, len(kept), maxAttempts(size))
					}
					if width, capped := lastBatch(kept, size); capped {
						byCap[width]++
					}
				}
			}
		}
	}
	// The cap 64·size+1024 is a multiple of WideLanes (32), and the size
	// keeps every batch full while size − len(dsts) ≥ WideLanes, so a
	// padded last call the cap bounds below the size is at most
	// WideLanes − 2 = 30 wide: for limit − attempts to leave a remainder,
	// an earlier call must have been narrowed by the size, after which at
	// most WideLanes − 1 destinations are wanted, and the cap must bound
	// the last call strictly below that. Width 31 cannot occur. Widths 17
	// to 30 are the certified pass's, or two VDIVPD passes'; 9 to 16 the
	// four-chain pass's and 1 to 8 the two-chain pass's.
	for width := int64(1); width <= recvec.WideLanes-2; width++ {
		if byCap[width] == 0 {
			t.Errorf("no scope ended on a padded call of width %d bounded by the cap (by width: %v); the cap cases no longer cover it", width, byCap)
		}
	}
}

// capSizes are the sizes of the cap cases, every size from 2 up to two
// wide batches and one; a row runs those above the cells it reaches.
var capSizes = func() []int64 {
	var sizes []int64
	for size := int64(2); size <= 2*recvec.WideLanes+1; size++ {
		sizes = append(sizes, size)
	}
	return sizes
}()

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
