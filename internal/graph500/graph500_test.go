package graph500

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/skg"
	"repro/internal/stats"
)

func baseConfig() Config {
	return Config{
		Seed:       skg.Graph500Seed,
		Levels:     12,
		NumEdges:   1 << 15,
		NoiseParam: 0.1,
		Cluster: cluster.Config{
			Machines: 4, ThreadsPerMachine: 2,
			BandwidthBytesPerSec: cluster.InfiniBandEDR,
		},
	}
}

func TestValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := baseConfig()
	c.NoiseParam = 0.5
	if err := c.Validate(); err == nil {
		t.Fatal("expected noise bound error")
	}
	c = baseConfig()
	c.Seed = skg.Seed{A: 0.5, B: 0.3, C: 0.05, D: 0.15}
	c.NoiseParam = 0.1 // below β, above γ
	if err := c.Validate(); err == nil {
		t.Fatal("expected noise bound error above γ on an asymmetric seed")
	}
	c = baseConfig()
	c.Levels = 0
	if err := c.Validate(); err == nil {
		t.Fatal("expected levels error")
	}
}

// TestScrambleIsBijective: exhaustive over small domains.
func TestScrambleIsBijective(t *testing.T) {
	for _, levels := range []int{1, 4, 10} {
		n := int64(1) << levels
		seen := make(map[int64]bool, n)
		for x := int64(0); x < n; x++ {
			y := Scramble(x, levels, 42)
			if y < 0 || y >= n {
				t.Fatalf("levels %d: Scramble(%d) = %d out of range", levels, x, y)
			}
			if seen[y] {
				t.Fatalf("levels %d: collision at %d", levels, y)
			}
			seen[y] = true
		}
	}
}

// TestScrambleBreaksOwnershipSkew: the benchmark's point is that
// contiguous ranges of the scrambled space carry balanced load. Check
// that the hottest worker's inbox is within 2x of the mean — on counted
// edges, not task wall time, so a loaded box cannot move the ratio.
func TestScrambleBreaksOwnershipSkew(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OwnedEdges) != cfg.Cluster.Workers() {
		t.Fatalf("ownership reported for %d workers, want %d", len(res.OwnedEdges), cfg.Cluster.Workers())
	}
	var hottest, total int64
	for _, n := range res.OwnedEdges {
		hottest = max(hottest, n)
		total += n
	}
	if total != res.Edges {
		t.Fatalf("workers own %d edges, %d generated", total, res.Edges)
	}
	skew := float64(hottest) * float64(len(res.OwnedEdges)) / float64(total)
	if skew > 2 {
		t.Fatalf("ownership skew %v (inboxes %v); scramble should balance ownership", skew, res.OwnedEdges)
	}
}

func TestRunCounts(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != cfg.NumEdges/int64(cfg.Cluster.Workers())*int64(cfg.Cluster.Workers()) {
		t.Fatalf("edge-list entries %d", res.Edges)
	}
	if res.DistinctEdges == 0 || res.DistinctEdges > res.Edges {
		t.Fatalf("distinct %d of %d", res.DistinctEdges, res.Edges)
	}
	if res.Sim.BytesShuffled() == 0 {
		t.Fatal("no shuffle traffic")
	}
	if res.PeakMachineBytes == 0 {
		t.Fatal("no memory tracked")
	}
}

// TestCSROutputSortedAndDeduped: emitted adjacency lists are sorted,
// duplicate-free, and cover exactly DistinctEdges.
func TestCSROutput(t *testing.T) {
	cfg := baseConfig()
	var total int64
	srcSeen := make(map[int64]bool)
	res, err := Run(cfg, 3, func(src int64, dsts []int64) error {
		if srcSeen[src] {
			t.Fatalf("source %d emitted twice", src)
		}
		srcSeen[src] = true
		if !sort.SliceIsSorted(dsts, func(i, j int) bool { return dsts[i] < dsts[j] }) {
			t.Fatalf("adjacency of %d not sorted", src)
		}
		for i := 1; i < len(dsts); i++ {
			if dsts[i] == dsts[i-1] {
				t.Fatalf("duplicate neighbour in CSR for %d", src)
			}
		}
		total += int64(len(dsts))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != res.DistinctEdges {
		t.Fatalf("emitted %d, reported %d", total, res.DistinctEdges)
	}
}

func TestOutOfMemory(t *testing.T) {
	cfg := baseConfig()
	cfg.MemLimitBytes = 4096
	if _, err := Run(cfg, 1, nil); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
}

// TestConstructionDominatesOnSlowNetwork: on 1 GbE the construction
// ratio (shuffle+construct over total) must be large, and it must drop
// when only bandwidth improves — the Figure 14 shape.
func TestConstructionRatioNetworkSensitivity(t *testing.T) {
	slow := baseConfig()
	slow.Cluster.BandwidthBytesPerSec = cluster.OneGbE / 100 // exaggerate for test speed
	sres, err := Run(slow, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast := baseConfig()
	fres, err := Run(fast, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sres.ConstructionRatio() <= fres.ConstructionRatio() {
		t.Fatalf("slow-net ratio %v not above fast-net ratio %v",
			sres.ConstructionRatio(), fres.ConstructionRatio())
	}
	if sres.ConstructionRatio() < 0.5 {
		t.Fatalf("slow-net construction ratio %v; expected dominance", sres.ConstructionRatio())
	}
}

// TestDegreeDistributionIsNoisyPowerLaw: the generated graph (after
// unscrambling conceptually — degrees are label-invariant) follows a
// smooth heavy-tailed distribution.
func TestDegreeDistribution(t *testing.T) {
	cfg := baseConfig()
	cfg.Levels = 13
	cfg.NumEdges = 1 << 17
	counter := stats.NewDegreeCounter()
	if _, err := Run(cfg, 11, func(src int64, dsts []int64) error {
		counter.AddScope(src, dsts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slope, r2 := stats.PowerLawSlope(counter.OutHist())
	if math.IsNaN(slope) || slope > -0.8 || slope < -4 {
		t.Fatalf("power-law slope %v (r2 %v) implausible", slope, r2)
	}
}
