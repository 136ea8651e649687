package validate

import (
	"strings"
	"testing"

	"repro/internal/community"
	"repro/internal/gformat"
)

func communityLayout(t *testing.T, cfg community.Config) *community.Layout {
	t.Helper()
	lay, err := community.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// consumeCommunity generates the layout and streams the output through
// an accumulator with the block tally hooked in, the way the CLI does.
func consumeCommunity(t *testing.T, lay *community.Layout) (*Accumulator, *CommunityTally) {
	t.Helper()
	dir := t.TempDir()
	if _, err := lay.GenerateToDir(dir, gformat.TSV, community.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator()
	tally := NewCommunityTally(lay)
	acc.SetEdgeHook(tally.Observe)
	if err := acc.ConsumeDir(dir); err != nil {
		t.Fatal(err)
	}
	return acc, tally
}

// testCommunityConfig keeps blocks sparse enough that in-scope dedup
// losses stay far inside the edge thresholds.
func testCommunityConfig() community.Config {
	return community.Config{
		Sizes:      []int64{128, 129},
		Mixing:     [][]float64{{4, 1}, {1, 2}},
		Edges:      1600,
		MasterSeed: 5,
	}
}

func findCheck(r *Report, name string) *Check {
	for i := range r.Checks {
		if r.Checks[i].Name == name {
			return &r.Checks[i]
		}
	}
	return nil
}

func TestEvaluateCommunityPassesOnRealOutput(t *testing.T) {
	lay := communityLayout(t, testCommunityConfig())
	acc, tally := consumeCommunity(t, lay)
	rep := EvaluateCommunity(lay, acc, tally, DefaultThresholds(), nil, "community-pass")
	if rep.Failed() {
		t.Fatalf("real output failed its own layout:\n%s", rep.Summary())
	}
	for _, name := range []string{"edges", "community_stray", "intra_edges", "inter_edges", "block(0,0)", "block(1,1)"} {
		c := findCheck(rep, name)
		if c == nil {
			t.Fatalf("report lacks the %s check:\n%s", name, rep.Summary())
		}
		if c.Status == StatusFail {
			t.Fatalf("check %s failed:\n%s", name, rep.Summary())
		}
	}
	if rep.Params.Model != "community" || rep.Params.Edges != lay.TotalEdges() {
		t.Fatalf("params %+v", rep.Params)
	}
}

// TestEvaluateCommunityRejectsWrongMixing: output generated under one
// mixing matrix, validated against a layout whose weights are
// transposed, must fail on block densities — this is the gate that
// catches a mislabeled or tampered spec.
func TestEvaluateCommunityRejectsWrongMixing(t *testing.T) {
	truth := communityLayout(t, testCommunityConfig())
	dir := t.TempDir()
	if _, err := truth.GenerateToDir(dir, gformat.TSV, community.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	wrongCfg := testCommunityConfig()
	wrongCfg.Mixing = [][]float64{{1, 4}, {2, 1}}
	wrong := communityLayout(t, wrongCfg)
	acc := NewAccumulator()
	tally := NewCommunityTally(wrong)
	acc.SetEdgeHook(tally.Observe)
	if err := acc.ConsumeDir(dir); err != nil {
		t.Fatal(err)
	}
	rep := EvaluateCommunity(wrong, acc, tally, DefaultThresholds(), nil, "wrong-mixing")
	if !rep.Failed() {
		t.Fatalf("wrong mixing matrix passed validation:\n%s", rep.Summary())
	}
	failedBlock := false
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Name, "block(") && c.Status == StatusFail {
			failedBlock = true
		}
	}
	if !failedBlock {
		t.Fatalf("no per-block check failed:\n%s", rep.Summary())
	}
}

// TestEvaluateCommunityFlagsStrayEdges: any edge outside the planned
// blocks fails the run outright, however good the totals look.
func TestEvaluateCommunityFlagsStrayEdges(t *testing.T) {
	cfg := testCommunityConfig()
	cfg.Mixing = [][]float64{{4, 1}, {0, 2}} // block (1,0) unplanned
	lay := communityLayout(t, cfg)
	acc := NewAccumulator()
	tally := NewCommunityTally(lay)
	acc.SetEdgeHook(tally.Observe)
	acc.AddScope(0, []int64{1})       // planned: (0,0)
	acc.AddScope(200, []int64{0})     // community 1 → community 0: unplanned
	acc.AddScope(999_999, []int64{1}) // outside the vertex space entirely

	rep := EvaluateCommunity(lay, acc, tally, DefaultThresholds(), nil, "stray")
	c := findCheck(rep, "community_stray")
	if c == nil || c.Status != StatusFail {
		t.Fatalf("stray edges did not fail the stray check:\n%s", rep.Summary())
	}
	if c.Observed != 2 {
		t.Fatalf("stray count %v, want 2", c.Observed)
	}
	if !strings.Contains(c.Detail, "(200, 0)") {
		t.Fatalf("stray detail %q does not name the first offender", c.Detail)
	}
	if !rep.Failed() {
		t.Fatal("report with stray edges did not fail overall")
	}
}

// TestCommunityTallyMapsBlocks: the tally lands each edge in the block
// owning its (src community, dst community) pair.
func TestCommunityTallyMapsBlocks(t *testing.T) {
	lay := communityLayout(t, testCommunityConfig())
	tally := NewCommunityTally(lay)
	tally.Observe(0, 130)   // (0,1)
	tally.Observe(0, 130)   // (0,1) again
	tally.Observe(140, 141) // (1,1)
	edges, stray, _ := tally.snapshot()
	if stray != 0 {
		t.Fatalf("stray = %d, want 0", stray)
	}
	var got [2]int64
	for i, b := range lay.Blocks() {
		if b.SrcComm == 0 && b.DstComm == 1 {
			got[0] = edges[i]
		}
		if b.SrcComm == 1 && b.DstComm == 1 {
			got[1] = edges[i]
		}
	}
	if got[0] != 2 || got[1] != 1 {
		t.Fatalf("block tallies %v, want [2 1]", got)
	}
}
