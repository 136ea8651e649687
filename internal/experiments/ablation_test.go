package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// chiSquare computes Pearson's statistic of observed counts against
// expected probabilities (conditioned on the row).
func chiSquare(obs []int64, probs []float64, total float64, n int64) float64 {
	var stat float64
	for i, o := range obs {
		e := float64(n) * probs[i] / total
		if e < 1e-9 {
			continue
		}
		d := float64(o) - e
		stat += d * d / e
	}
	return stat
}

// TestAllOptionCombosSameDistribution: every descent — full or sparse,
// translated or redrawn, binary or linear search — draws destinations
// from K_{u,v}/P_{u→}.
func TestAllOptionCombosSameDistribution(t *testing.T) {
	k := skg.Graph500Seed
	const levels = 5
	n := int64(1) << levels
	u := int64(9)
	vec := recvec.New(k, u, levels)
	probs := make([]float64, n)
	for dst := int64(0); dst < n; dst++ {
		probs[dst] = skg.EdgeProb(k, u, dst, levels)
	}
	for ci, v := range []variant{
		{},
		{single: true},
		{sparse: true, search: binary},
		{sparse: true, single: true, search: binary},
		{sparse: true, search: linear},
		{sparse: true, single: true, search: linear},
		{sparse: true, single: true, search: scan},
	} {
		src := rng.New(uint64(100 + ci))
		const draws = 200000
		obs := make([]int64, n)
		var w work
		for i := 0; i < draws; i++ {
			x := src.UniformTo(vec.RowProb())
			obs[v.descend(vec, x, src, &w)]++
		}
		stat := chiSquare(obs, probs, vec.RowProb(), draws)
		// 31 dof; 99.9th percentile ≈ 61.1.
		if stat > 75 {
			t.Fatalf("variant %+v: chi-square %v too large for 31 dof", v, stat)
		}
	}
}

// TestSingleRandomDeterminesSameAsProduction: with Idea#3 the per-step
// binary and linear searches agree value for value with Determine.
func TestSingleRandomDeterminesSameAsProduction(t *testing.T) {
	vec := recvec.New(skg.Graph500Seed, 333, 12)
	src := rng.New(11)
	var w work
	for i := 0; i < 10000; i++ {
		x := src.UniformTo(vec.RowProb())
		want := vec.Determine(x)
		for _, s := range []search{binary, linear} {
			if got := (variant{sparse: true, single: true, search: s}).descend(vec, x, nil, &w); got != want {
				t.Fatalf("x=%v search %d: Determine %d, per-step search %d", x, s, want, got)
			}
		}
	}
}

// TestFullDescentSingleRandomMatches: full descent with a single random
// value is the same deterministic map as sparse search.
func TestFullDescentSingleRandomMatches(t *testing.T) {
	vec := recvec.New(skg.Seed{A: 0.5, B: 0.2, C: 0.2, D: 0.1}, 6, 9)
	src := rng.New(13)
	var w work
	for i := 0; i < 10000; i++ {
		x := src.UniformTo(vec.RowProb())
		a := variant{sparse: true, single: true, search: binary}.descend(vec, x, nil, &w)
		b := variant{single: true}.descend(vec, x, nil, &w)
		if a != b {
			t.Fatalf("x=%v: sparse %d, full %d", x, a, b)
		}
	}
}

func TestSearchLinearEqualsBinary(t *testing.T) {
	vec := recvec.New(skg.Graph500Seed, 4242, 30)
	src := rng.New(53)
	for i := 0; i < 20000; i++ {
		x := src.UniformIn(vec.At(0), vec.RowProb())
		if a, b := stepLinear(vec, x), stepBinary(vec, x); a != b {
			t.Fatalf("x=%v: linear %d, binary %d", x, a, b)
		}
	}
}

// TestAblationVariantsProduceSameTotals: all eight cells draw the same
// scopes to about |E| edges. The four with Idea#3 on draw one uniform per
// attempt through the same map, so they draw the very same graph; the
// redrawing four only the same distribution.
func TestAblationVariantsProduceSameTotals(t *testing.T) {
	cfg := core.DefaultConfig(10)
	g, err := core.NewScopeGenerator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := variant{reuse: true, sparse: true, single: true, search: scan}.ablate(g, 77)
	for _, v := range []variant{
		{},
		{single: true},
		{sparse: true, search: binary},
		{sparse: true, single: true, search: binary},
		{reuse: true},
		{reuse: true, single: true},
		{reuse: true, sparse: true, search: binary},
	} {
		got := v.ablate(g, 77)
		if got.Scopes != want.Scopes {
			t.Fatalf("variant %+v: %d non-empty scopes, all-on %d", v, got.Scopes, want.Scopes)
		}
		if v.single && (got.Edges != want.Edges || got.Attempts != want.Attempts) {
			t.Fatalf("variant %+v: %d edges / %d attempts, all-on %d / %d", v, got.Edges, got.Attempts, want.Edges, want.Attempts)
		}
		if math.Abs(float64(got.Edges)-float64(cfg.NumEdges())) > 0.05*float64(cfg.NumEdges()) {
			t.Fatalf("variant %+v: %d edges, want ≈ %d", v, got.Edges, cfg.NumEdges())
		}
	}
}
