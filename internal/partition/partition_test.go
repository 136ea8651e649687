package partition_test

// These tests hold core.Plan, the one planner, to the contract of the
// ranges it hands every runtime: exactly `parts` of them, tiling
// [0, |V|) in order, balanced by the edges generation will draw. The
// oracle comparison against the drawn Figure 6 plan is core's
// TestPlanMatchesDrawnOracle.

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/rng"
)

func checkTiles(t *testing.T, ranges []partition.Range, parts int, nv int64) {
	t.Helper()
	if len(ranges) != parts {
		t.Fatalf("parts=%d: got %d ranges", parts, len(ranges))
	}
	next := int64(0)
	for i, r := range ranges {
		if r.Lo != next || r.Hi < r.Lo {
			t.Fatalf("parts=%d: range %d is %+v, want it to start at %d", parts, i, r, next)
		}
		next = r.Hi
	}
	if next != nv {
		t.Fatalf("parts=%d: coverage ends at %d, want %d", parts, next, nv)
	}
}

func TestPlanValidation(t *testing.T) {
	cfg := core.DefaultConfig(8)
	if _, err := core.Plan(cfg, 0); err == nil {
		t.Fatal("expected error for 0 parts")
	}
	bad := cfg
	bad.Scale = 0
	if _, err := core.Plan(bad, 4); err == nil {
		t.Fatal("expected error for an invalid configuration")
	}
	// More parts than vertices is a plan with empty ranges, not an error.
	ranges, err := core.Plan(cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	checkTiles(t, ranges, 1000, cfg.NumVertices())
}

// TestPlanCoversVertexSpace: ranges are contiguous, disjoint and cover
// [0, |V|) in order, with exactly `parts` entries.
func TestPlanCoversVertexSpace(t *testing.T) {
	cfg := core.DefaultConfig(12)
	cfg.MasterSeed = 99
	for _, parts := range []int{1, 2, 7, 60} {
		ranges, err := core.Plan(cfg, parts)
		if err != nil {
			t.Fatal(err)
		}
		checkTiles(t, ranges, parts, cfg.NumVertices())
	}
}

// TestPlanBalances: the edges generation draws for each range — the
// scope sizes from each scope's own stream — are within a factor of the
// ideal |E|/parts.
func TestPlanBalances(t *testing.T) {
	cfg := core.DefaultConfig(14)
	cfg.MasterSeed = 7
	const parts = 8
	ranges, err := core.Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewScopeGenerator(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int64, parts)
	var total int64
	for i, r := range ranges {
		for u := r.Lo; u < r.Hi; u++ {
			loads[i] += g.ScopeSize(u, rng.NewScoped(cfg.MasterSeed, uint64(u)))
		}
		total += loads[i]
	}
	ideal := float64(total) / parts
	for i, load := range loads {
		if float64(load) > 1.6*ideal || float64(load) < 0.4*ideal {
			t.Fatalf("range %d draws %d edges, far from ideal %v (ranges %+v)", i, load, ideal, ranges)
		}
	}
}

// TestPlanDeterministic: same inputs, same plan.
func TestPlanDeterministic(t *testing.T) {
	cfg := core.DefaultConfig(10)
	cfg.NoiseParam = 0.1
	a, err := core.Plan(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Plan(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPlanSinglePart: one part owns everything.
func TestPlanSinglePart(t *testing.T) {
	ranges, err := core.Plan(core.DefaultConfig(9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 1 || ranges[0].Lo != 0 || ranges[0].Hi != 512 {
		t.Fatalf("ranges %+v", ranges)
	}
}

// TestPlanPartsEqualVertices: extreme split still covers the space.
func TestPlanPartsEqualVertices(t *testing.T) {
	ranges, err := core.Plan(core.DefaultConfig(4), 16)
	if err != nil {
		t.Fatal(err)
	}
	checkTiles(t, ranges, 16, 16)
}

// TestPlanCoverageProperty: for random (seed, parts) — NSKG, so the seed
// moves the cuts, and up to twice as many parts as vertices — the plan
// always covers [0, |V|) exactly once: the planner's safety invariant.
func TestPlanCoverageProperty(t *testing.T) {
	cfg := core.DefaultConfig(10)
	cfg.NoiseParam = 0.1
	f := func(seed uint16, partsRaw uint16) bool {
		cfg.MasterSeed = uint64(seed)
		parts := int(partsRaw)%2048 + 1
		ranges, err := core.Plan(cfg, parts)
		if err != nil || len(ranges) != parts {
			return false
		}
		next := int64(0)
		for _, r := range ranges {
			if r.Lo != next || r.Hi < r.Lo {
				return false
			}
			next = r.Hi
		}
		return next == 1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
