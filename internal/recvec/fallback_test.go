package recvec_test

import (
	"fmt"
	"testing"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/recvec"
	"repro/internal/rng"
)

// benchMaster is bench/'s env.master at its default seed, 1: the master
// seed a workload derives from its salt.
func benchMaster(salt uint64) uint64 { return rng.Mix64(1, salt) | 1 }

// TestWorkloadsNeverFallBack runs the configurations of bench/'s seven
// workloads, at their full sizes, and counts the certified passes handed
// back to the VDIVPD kernels: there must be none, so the certified pass
// serves every batch wider than sixteen that they draw. swarm-2w and
// dist-2w draw one configuration between them, and stream-http is its
// first client's jobs. Destinations are the pass's concern
// (FuzzDetermine, checkWide); this is about its reach.
func TestWorkloadsNeverFallBack(t *testing.T) {
	if !recvec.HasEVEX {
		t.Skip("no certified pass on this CPU or in this build")
	}
	classic := func(scale int, edgeFactor int64, master uint64) core.Config {
		cfg := core.DefaultConfig(scale)
		cfg.EdgeFactor, cfg.MasterSeed, cfg.Workers = edgeFactor, master, 2
		return cfg
	}
	runs := map[string]core.Config{
		"batch-sparse":      classic(18, 16, benchMaster(1)),
		"batch-dense":       classic(13, 128, benchMaster(2)),
		"store-cycle":       classic(17, 16, benchMaster(3)),
		"swarm-2w, dist-2w": classic(18, 16, 0x5EED),
	}
	for j := range 4 {
		runs[fmt.Sprintf("stream-http job %d", j+1)] = classic(15, 16, benchMaster(uint64(400+j)))
	}
	for name, cfg := range runs {
		before := recvec.FallbackPasses()
		if _, err := core.Generate(cfg, core.DiscardSinks(gformat.ADJ6)); err != nil {
			t.Fatal(err)
		}
		if n := recvec.FallbackPasses() - before; n != 0 {
			t.Errorf("%s: %d passes handed back", name, n)
		}
	}

	l, err := community.New(community.Config{
		Sizes:      []int64{75000, 50000, 37500, 25000},
		Mixing:     [][]float64{{8, 1, 1, 1}, {1, 8, 1, 1}, {1, 1, 8, 1}, {1, 1, 1, 8}},
		Edges:      6000000,
		MasterSeed: benchMaster(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges, ids, err := l.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	before := recvec.FallbackPasses()
	if _, err := core.GenerateParts(l, ranges, ids, core.DiscardSinks(gformat.ADJ6), nil); err != nil {
		t.Fatal(err)
	}
	if n := recvec.FallbackPasses() - before; n != 0 {
		t.Errorf("community-k4: %d passes handed back", n)
	}
}
