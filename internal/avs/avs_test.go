package avs

import (
	"math"
	"slices"
	"testing"

	"repro/internal/memacct"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/stats"
)

func baseConfig(levels int) Config {
	return Config{
		Seed:     skg.Graph500Seed,
		Levels:   levels,
		NumEdges: 16 << uint(levels),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig(10).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := baseConfig(10)
	bad.Levels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for levels 0")
	}
	bad = baseConfig(10)
	bad.Levels = 60
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for levels 60")
	}
	bad = baseConfig(10)
	bad.NumEdges = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero edges")
	}
	bad = baseConfig(10)
	bad.Seed = skg.Seed{A: 1, B: 1, C: 1, D: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for invalid seed")
	}
	src := rng.New(1)
	ns, _ := skg.NewNoise(skg.Graph500Seed, 4, 0.1, src)
	bad = baseConfig(10)
	bad.Noise = ns
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for short noise")
	}
}

func TestNumVertices(t *testing.T) {
	if got := baseConfig(10).NumVertices(); got != 1024 {
		t.Fatalf("NumVertices = %d", got)
	}
}

// TestScopeSizesSumToNumEdges: Theorem 1 — summing all scope sizes
// approximates |E| (the binomial total is exactly |E| in expectation).
func TestScopeSizesSumToNumEdges(t *testing.T) {
	cfg := baseConfig(12)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	var total int64
	for u := int64(0); u < cfg.NumVertices(); u++ {
		total += g.ScopeSize(u, src)
	}
	want := float64(cfg.NumEdges)
	if math.Abs(float64(total)-want) > 0.02*want {
		t.Fatalf("total scope size %d, want ≈ %d", total, cfg.NumEdges)
	}
}

// TestExpectedDegreeMatchesScopeSizeMean: the analytic expectation used
// by the partitioner agrees with the sampler.
func TestExpectedDegreeMatchesScopeSizeMean(t *testing.T) {
	cfg := baseConfig(10)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	u := int64(5)
	const trials = 3000
	var sum int64
	for i := 0; i < trials; i++ {
		sum += g.ScopeSize(u, src)
	}
	mean := float64(sum) / trials
	want := g.ExpectedDegree(u)
	if math.Abs(mean-want) > 0.05*want+0.5 {
		t.Fatalf("sampled mean %v, analytic %v", mean, want)
	}
}

// TestScopeDestinationsDistinct: Algorithm 4's dedup produces a set.
func TestScopeDestinationsDistinct(t *testing.T) {
	cfg := baseConfig(12)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	var buf []int64
	for u := int64(0); u < 512; u++ {
		res := g.Scope(u, src, buf)
		buf = res.Dsts
		seen := make(map[int64]struct{}, len(res.Dsts))
		for _, d := range res.Dsts {
			if _, dup := seen[d]; dup {
				t.Fatalf("u=%d: duplicate destination %d", u, d)
			}
			if d < 0 || d >= cfg.NumVertices() {
				t.Fatalf("u=%d: destination %d out of range", u, d)
			}
			seen[d] = struct{}{}
		}
		if res.Attempts < int64(len(res.Dsts)) {
			t.Fatalf("u=%d: attempts %d < edges %d", u, res.Attempts, len(res.Dsts))
		}
	}
}

// TestScopeWithSizeExact: requesting a size yields exactly that many
// distinct destinations (when |V| allows).
func TestScopeWithSizeExact(t *testing.T) {
	cfg := baseConfig(14)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(17)
	dsts, _ := g.ScopeWithSize(nil, 123, 200, src)
	if len(dsts) != 200 {
		t.Fatalf("got %d destinations, want 200", len(dsts))
	}
}

// TestScopeWithSizeClampsToNumVertices: asking for more than |V|
// distinct destinations is clamped instead of looping forever.
func TestScopeWithSizeClampsToNumVertices(t *testing.T) {
	cfg := Config{Seed: skg.UniformSeed, Levels: 4, NumEdges: 100}
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(19)
	dsts, _ := g.ScopeWithSize(nil, 3, 1000, src)
	if len(dsts) != 16 {
		t.Fatalf("got %d destinations, want all 16", len(dsts))
	}
}

// TestScopeDeterministic: identical source streams replay identical
// scopes.
func TestScopeDeterministic(t *testing.T) {
	cfg := baseConfig(12)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Scope(42, rng.NewScoped(1, 42), nil)
	b := g.Scope(42, rng.NewScoped(1, 42), nil)
	if len(a.Dsts) != len(b.Dsts) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Dsts), len(b.Dsts))
	}
	for i := range a.Dsts {
		if a.Dsts[i] != b.Dsts[i] {
			t.Fatalf("destination %d differs", i)
		}
	}
}

// TestGraphDegreeDistribution: generating every scope of a Scale-13
// graph yields ≈ |E| edges, and the mean degree of vertices with k one
// bits falls on Lemma 6's line: log2(deg_k) linear in k with slope
// log2(γ+δ) − log2(α+β) ≈ −1.663 (the content of the paper's Zipf-slope
// claim; the true rank-frequency curve is convex, see EXPERIMENTS.md).
func TestGraphDegreeDistribution(t *testing.T) {
	cfg := baseConfig(13)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var buf []int64
	classSum := make([]float64, cfg.Levels+1)
	classN := make([]float64, cfg.Levels+1)
	for u := int64(0); u < cfg.NumVertices(); u++ {
		res := g.Scope(u, rng.NewScoped(33, uint64(u)), buf)
		buf = res.Dsts
		total += int64(len(res.Dsts))
		ones := 0
		for x := u; x != 0; x &= x - 1 {
			ones++
		}
		classSum[ones] += float64(len(res.Dsts))
		classN[ones]++
	}
	if math.Abs(float64(total)-float64(cfg.NumEdges)) > 0.05*float64(cfg.NumEdges) {
		t.Fatalf("total edges %d, want ≈ %d", total, cfg.NumEdges)
	}
	var xs, ys []float64
	for k := 0; k <= cfg.Levels; k++ {
		if classN[k] == 0 {
			continue
		}
		mean := classSum[k] / classN[k]
		if mean < 2 { // tail classes dominated by dedup clamping/noise
			continue
		}
		xs = append(xs, float64(k))
		ys = append(ys, math.Log2(mean))
	}
	slope, _, r2 := stats.LinearFit(xs, ys)
	want := cfg.Seed.OutZipfSlope() // ≈ −1.663
	if math.Abs(slope-want) > 0.1 {
		t.Fatalf("popcount-class slope %v (r2 %v), want ≈ %v", slope, r2, want)
	}
	if r2 < 0.99 {
		t.Fatalf("popcount-class fit r2 %v, want near-perfect linearity", r2)
	}
}

// TestNoisyScopeGeneration: the NSKG path produces a valid graph of
// roughly |E| edges too.
func TestNoisyScopeGeneration(t *testing.T) {
	const levels = 11
	nsrc := rng.New(3)
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, nsrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(levels)
	cfg.Noise = ns
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var buf []int64
	for u := int64(0); u < cfg.NumVertices(); u++ {
		res := g.Scope(u, rng.NewScoped(5, uint64(u)), buf)
		buf = res.Dsts
		total += int64(len(res.Dsts))
	}
	if math.Abs(float64(total)-float64(cfg.NumEdges)) > 0.1*float64(cfg.NumEdges) {
		t.Fatalf("noisy total edges %d, want ≈ %d", total, cfg.NumEdges)
	}
}

// TestAblationVariantsProduceSameTotals: the two float64 samplers the
// engine keeps — production and CommunityV1, Figure 13's all-ideas-off
// descent — draw the same scope sizes from the same streams and about
// |E| distinct edges each; only where the destinations land differs.
func TestAblationVariantsProduceSameTotals(t *testing.T) {
	var sizes [2][]int64
	for i, v1 := range []bool{false, true} {
		cfg := baseConfig(10)
		cfg.CommunityV1 = v1
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		var buf []int64
		for u := int64(0); u < cfg.NumVertices(); u++ {
			sizes[i] = append(sizes[i], g.ScopeSize(u, rng.NewScoped(77, uint64(u))))
			res := g.Scope(u, rng.NewScoped(77, uint64(u)), buf)
			buf = res.Dsts
			total += int64(len(res.Dsts))
		}
		if want := float64(cfg.NumEdges); math.Abs(float64(total)-want) > 0.05*want {
			t.Fatalf("v1 %v: %d edges, want ≈ %d", v1, total, cfg.NumEdges)
		}
	}
	if !slices.Equal(sizes[0], sizes[1]) {
		t.Fatal("CommunityV1 changed the scope sizes drawn from the same streams")
	}
}

// TestHighPrecisionMatchesFloat64Sizes: big.Float mode generates the
// same scope sizes and valid destinations.
func TestHighPrecisionMatchesFloat64(t *testing.T) {
	cfg := baseConfig(10)
	cfg.HighPrecision = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Scope(100, rng.NewScoped(9, 100), nil)
	for _, d := range res.Dsts {
		if d < 0 || d >= cfg.NumVertices() {
			t.Fatalf("destination %d out of range", d)
		}
	}
	if len(res.Dsts) == 0 {
		t.Fatal("expected some edges from vertex 100")
	}
}

// TestMemoryAccountingIsScopeLocal: peak tracked memory stays O(d_max),
// far below edge-set size.
func TestMemoryAccountingIsScopeLocal(t *testing.T) {
	var acct memacct.Acct
	cfg := baseConfig(13)
	g, err := New(cfg, &acct)
	if err != nil {
		t.Fatal(err)
	}
	var maxDeg int64
	var buf []int64
	for u := int64(0); u < cfg.NumVertices(); u++ {
		res := g.Scope(u, rng.NewScoped(21, uint64(u)), buf)
		buf = res.Dsts
		if int64(len(res.Dsts)) > maxDeg {
			maxDeg = int64(len(res.Dsts))
		}
	}
	if acct.Current() != 0 {
		t.Fatalf("leaked %d tracked bytes", acct.Current())
	}
	peak := acct.Peak()
	// Peak must cover d_max vertex IDs but stay well under |E| edges.
	if peak < maxDeg*memacct.VertexBytes {
		t.Fatalf("peak %d below d_max requirement %d", peak, maxDeg*memacct.VertexBytes)
	}
	if peak > 64*maxDeg*memacct.VertexBytes+4096 {
		t.Fatalf("peak %d not O(d_max) (d_max=%d)", peak, maxDeg)
	}
}

// TestDedupSetTiers: Begin takes the bitmap for a hub row, |V| ≤
// 64·size, and for every scope of a generator whose d̂_max reaches |V|/64
// while |V| ≤ 2^23; the table otherwise. Every tier
// answers membership like a Go map, also when reused for a later scope
// after an ended or an abandoned one (stale entries must not leak
// through Begin).
func TestDedupSetTiers(t *testing.T) {
	var s DedupSet
	src := rng.New(5)
	for _, tc := range []struct {
		size, nv, reach int64
		want            dedupTier
	}{
		{1, 1 << 20, 1, tierTable},
		{1, 1 << 20, 1 << 14, tierBitmap},  // d̂_max reaches |V|/64
		{1, 1 << 20, 1<<14 - 1, tierTable}, // one short of it
		{1, 1 << 24, 1 << 20, tierTable},   // it does, but past 2^23 bits
		{1 << 18, 1 << 24, 1, tierBitmap},  // a hub row past 2^23 bits
		{16, 1 << 20, 16, tierTable},
		{5000, 1 << 20, 5000, tierTable},
		{1 << 14, 1 << 20, 1, tierBitmap}, // a hub row beyond d̂_max
		{1000, 1000, 1000, tierBitmap},    // size == |V|
		{1, 2, 1, tierBitmap},
	} {
		for round := 0; round < 3; round++ {
			s.Begin(tc.size, tc.nv, tc.reach, true)
			if s.tier != tc.want {
				t.Fatalf("size %d of %d, reach %d: tier %d, want %d", tc.size, tc.nv, tc.reach, s.tier, tc.want)
			}
			seen := make(map[int64]bool)
			var dsts []int64
			for int64(len(seen)) < tc.size {
				v := src.Int63n(tc.nv)
				if fresh := s.Insert(v); fresh == seen[v] {
					t.Fatalf("size %d of %d: insert(%d) = %v, seen before = %v", tc.size, tc.nv, v, fresh, seen[v])
				} else if fresh {
					dsts = append(dsts, v)
				}
				seen[v] = true
			}
			if round != 1 { // round 1 abandons its scope
				s.End(dsts)
			}
		}
	}
	s.Begin(10, 1<<20, 1<<20, false)
	if !s.Insert(7) || !s.Insert(7) {
		t.Fatal("tierNone rejected a repeat")
	}
}

func BenchmarkScope(b *testing.B) {
	cfg := baseConfig(24)
	g, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	var buf []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Scope(int64(i)&(cfg.NumVertices()-1), src, buf)
		buf = res.Dsts
	}
}

// TestAllowDuplicatesMode: the raw-trial mode emits exactly the sampled
// scope size, including repeats (the Graph500-edge-list behaviour the
// paper criticizes) — and repeats actually occur in hot scopes.
func TestAllowDuplicatesMode(t *testing.T) {
	cfg := baseConfig(12)
	cfg.AllowDuplicates = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	var total int64
	var buf []int64
	for u := int64(0); u < 256; u++ {
		res := g.Scope(u, rng.NewScoped(3, uint64(u)), buf)
		buf = res.Dsts
		if res.Attempts != int64(len(res.Dsts)) {
			t.Fatalf("u=%d: attempts %d != emitted %d in raw mode", u, res.Attempts, len(res.Dsts))
		}
		total += int64(len(res.Dsts))
		seen := make(map[int64]bool)
		for _, d := range res.Dsts {
			if seen[d] {
				foundDup = true
			}
			seen[d] = true
		}
	}
	if !foundDup {
		t.Fatal("no duplicates in raw mode at a dense scale — unexpected")
	}
	if total == 0 {
		t.Fatal("nothing generated")
	}
}
