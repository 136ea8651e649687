package teg

import (
	"math"
	"testing"

	"repro/internal/avs"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/stats"
)

func TestValidate(t *testing.T) {
	ok := Config{Seed: skg.Graph500Seed, Levels: 10, NumEdges: 100}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Levels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error")
	}
	bad = ok
	bad.NumEdges = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error")
	}
}

// TestDegreeIsDeterministic: two vertices in the same popcount class get
// the exact same degree — TeG's defining (and flawed) property.
func TestDegreeIsDeterministic(t *testing.T) {
	cfg := Config{Seed: skg.Graph500Seed, Levels: 12, NumEdges: 1 << 16}
	// 0b000011 and 0b000101 and 0b110000 all have two 1 bits.
	d1 := Degree(cfg, 0b000011)
	d2 := Degree(cfg, 0b000101)
	d3 := Degree(cfg, 0b110000)
	if d1 != d2 || d2 != d3 {
		t.Fatalf("same-class degrees differ: %d %d %d", d1, d2, d3)
	}
	want := int64(math.Round(float64(cfg.NumEdges) * math.Pow(0.76, 10) * math.Pow(0.24, 2)))
	if d1 != want {
		t.Fatalf("degree %d, want %d", d1, want)
	}
}

// TestGenerateTotalsAndSpikes: the generated graph has roughly |E|
// edges but its out-degree histogram collapses onto few spikes —
// (≤ levels+1 distinct degrees), unlike any stochastic generator.
func TestGenerateTotalsAndSpikes(t *testing.T) {
	cfg := Config{Seed: skg.Graph500Seed, Levels: 12, NumEdges: 1 << 15}
	counter := stats.NewDegreeCounter()
	total, err := Generate(cfg, 1, func(src int64, dsts []int64) error {
		counter.AddScope(src, dsts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(total)-float64(cfg.NumEdges)) > 0.1*float64(cfg.NumEdges) {
		t.Fatalf("total %d, want ≈ %d", total, cfg.NumEdges)
	}
	h := counter.OutHist()
	if len(h) > cfg.Levels+1 {
		t.Fatalf("TeG produced %d distinct degrees, want ≤ %d spikes", len(h), cfg.Levels+1)
	}
}

// TestKSAgainstStochastic: TeG's out-degree distribution is far from a
// stochastic AVS run of the same configuration, while two independent
// stochastic runs agree — the Figure 8 separation.
func TestKSAgainstStochastic(t *testing.T) {
	const levels = 11
	const edges = 1 << 15
	cfg := Config{Seed: skg.Graph500Seed, Levels: levels, NumEdges: edges}
	tegCounter := stats.NewDegreeCounter()
	if _, err := Generate(cfg, 2, func(src int64, dsts []int64) error {
		tegCounter.AddScope(src, dsts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stoch := func(master uint64) stats.Hist {
		g, err := avs.New(avs.Config{
			Seed: skg.Graph500Seed, Levels: levels, NumEdges: edges,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := make(stats.Hist)
		var buf []int64
		for u := int64(0); u < 1<<levels; u++ {
			res := g.Scope(u, rng.NewScoped(master, uint64(u)), buf)
			buf = res.Dsts
			if len(res.Dsts) > 0 {
				h.Add(int64(len(res.Dsts)))
			}
		}
		return h
	}
	a, b := stoch(100), stoch(200)
	ksStoch := stats.KS(a, b)
	ksTeG := stats.KS(tegCounter.OutHist(), a)
	if ksTeG < 3*ksStoch || ksTeG < 0.1 {
		t.Fatalf("KS(TeG, stochastic) = %v not well above KS(stochastic, stochastic) = %v", ksTeG, ksStoch)
	}
}
