package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The tests in this file assert the *shapes* each figure/table claims —
// who wins, what grows, where O.O.M. hits — at laptop scales. They are
// the machine-checked counterpart of EXPERIMENTS.md. Margins are
// generous (the paper's gaps are multiples, not percents) so timing
// noise on slow CI machines does not flake.

func TestReportPrint(t *testing.T) {
	r := Report{
		Title:   "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
		Notes:   []string{"n"},
	}
	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"== t ==", "a", "bb", "xxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if fmtDur(0) != "-" {
		t.Fatal("fmtDur(0)")
	}
	if fmtBytes(-1) != "O.O.M." {
		t.Fatal("fmtBytes(-1)")
	}
	if fmtBytes(2048) != "2.0KB" {
		t.Fatalf("fmtBytes(2048) = %s", fmtBytes(2048))
	}
}

func TestTable1Shapes(t *testing.T) {
	res, err := Table1([]int{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	// O(|E|) methods grow peak memory ~4x per 2 scales; AVS must grow
	// much slower.
	wes := res.MemGrowth("WES (RMAT-mem)")
	avs := res.MemGrowth("AVS (TrillionG)")
	if wes < 1.8 {
		t.Fatalf("WES memory growth/scale %v; expected ≈2", wes)
	}
	// d_max grows ≈1.52x per scale for the Graph500 seed (the paper's
	// own Figure 12b shows the same factor); WES grows 2x.
	if avs > 0.9*wes {
		t.Fatalf("AVS memory growth %v not clearly below WES %v", avs, wes)
	}
	// At equal scale, AVS peak is far below WES peak.
	var wesMem, avsMem int64
	for _, row := range res.Rows {
		if row.Scale != 12 {
			continue
		}
		switch row.Method {
		case "WES (RMAT-mem)":
			wesMem = row.PeakMem
		case "AVS (TrillionG)":
			avsMem = row.PeakMem
		}
	}
	if avsMem*10 > wesMem {
		t.Fatalf("AVS peak %d not ≪ WES peak %d", avsMem, wesMem)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestTable2Shapes(t *testing.T) {
	res, err := Table2([]int{14}, 50000)
	if err != nil {
		t.Fatal(err)
	}
	cdfLinear := res.Cell("CDF vector", "linear", 14)
	cdfBinary := res.Cell("CDF vector", "binary", 14)
	recBinary := res.Cell("RecVec", "binary", 14)
	if cdfLinear <= 0 || cdfBinary <= 0 || recBinary <= 0 {
		t.Fatalf("missing cells: %v %v %v", cdfLinear, cdfBinary, recBinary)
	}
	// Linear scan over 2^14 CDF entries must lose to both binary paths
	// by a wide margin.
	if cdfLinear < 5*cdfBinary {
		t.Fatalf("CDF linear %v ns not ≫ binary %v ns", cdfLinear, cdfBinary)
	}
	if cdfLinear < 5*recBinary {
		t.Fatalf("CDF linear %v ns not ≫ RecVec %v ns", cdfLinear, recBinary)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestTable3Shapes(t *testing.T) {
	res, err := Table3(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !math.IsNaN(row.TheorySlope) {
			if math.Abs(row.MeasuredSlope-row.TheorySlope) > 0.2 {
				t.Fatalf("%s: measured %v vs theory %v", row.Label, row.MeasuredSlope, row.TheorySlope)
			}
		} else {
			if math.Abs(row.Mean-row.WantMean) > 0.05*row.WantMean {
				t.Fatalf("gaussian mean %v, want %v", row.Mean, row.WantMean)
			}
			if row.KSNormal > 0.12 {
				t.Fatalf("gaussian KS %v", row.KSNormal)
			}
		}
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig8Shapes(t *testing.T) {
	// Scale 15 with edge factor 4 matches the hot-row density of the
	// paper's Scale-20/EF-16 setting (≈6%), where the stochastic trio
	// provably coincides.
	res, err := Fig8(15, 4)
	if err != nil {
		t.Fatal(err)
	}
	stochKS := res.KSToRMAT["TrillionG"]
	fastKS := res.KSToRMAT["FastKronecker"]
	tegKS := res.KSToRMAT["TeG"]
	if stochKS > 0.08 || fastKS > 0.08 {
		t.Fatalf("stochastic trio disagrees: TrillionG %v, FastKronecker %v", stochKS, fastKS)
	}
	if tegKS < 3*stochKS || tegKS < 0.15 {
		t.Fatalf("TeG KS %v not clearly above stochastic %v", tegKS, stochKS)
	}
	// The principled criterion: a two-sample KS test cannot tell
	// FastKronecker from RMAT even at the loose 10% level, while TeG
	// fails even the strict 0.1% level. (TrillionG's KS sits near the
	// 5% boundary at this scale because Theorem 1's normal
	// approximation is not the exact binomial; the gap shrinks with
	// scale — see EXPERIMENTS.md.)
	if !res.Indistinguishable("FastKronecker", 0.10) {
		t.Fatal("FastKronecker distinguishable from RMAT")
	}
	if res.Indistinguishable("TeG", 0.001) {
		t.Fatal("TeG indistinguishable from RMAT — the Figure 8 contrast is gone")
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig9Shapes(t *testing.T) {
	res, err := Fig9(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Oscillation) != 3 {
		t.Fatalf("oscillation points %d", len(res.Oscillation))
	}
	if !(res.Oscillation[0] > res.Oscillation[1] && res.Oscillation[1] > res.Oscillation[2]) {
		t.Fatalf("oscillation not monotone decreasing: %v", res.Oscillation)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig10Shapes(t *testing.T) {
	res, err := Fig10(1<<13, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutSkewness < 1 {
		t.Fatalf("out skewness %v; expected Zipfian tail", res.OutSkewness)
	}
	if math.Abs(res.InSkewness) > 0.4 {
		t.Fatalf("in skewness %v; expected Gaussian", res.InSkewness)
	}
	if math.Abs(res.InMean-res.InWantMean) > 0.05*res.InWantMean {
		t.Fatalf("in mean %v, want %v", res.InMean, res.InWantMean)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig11aShapes(t *testing.T) {
	scales := []int{11, 12, 13}
	res, err := Fig11a(scales, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	top := scales[len(scales)-1]
	// The in-memory baselines O.O.M. at the top scale under the cap;
	// TrillionG and RMAT-disk survive.
	if !res.OOM("RMAT-mem", top) || !res.OOM("FastKronecker", top) {
		t.Fatal("expected O.O.M. for in-memory baselines at the top scale")
	}
	if res.OOM("TrillionG/seq", top) || res.Time("TrillionG/seq", top) == 0 {
		t.Fatal("TrillionG/seq should survive the cap")
	}
	if res.Time("RMAT-disk", top) == 0 {
		t.Fatal("RMAT-disk should survive the cap")
	}
	// TrillionG/seq beats RMAT-disk (the 18.5x of the paper; require 2x).
	if res.Time("TrillionG/seq", top)*2 > res.Time("RMAT-disk", top) {
		t.Fatalf("TrillionG/seq %v not clearly faster than RMAT-disk %v",
			res.Time("TrillionG/seq", top), res.Time("RMAT-disk", top))
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig11bShapes(t *testing.T) {
	scales := []int{12, 13}
	res, err := Fig11b(scales, clusterForTest(), 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	top := scales[len(scales)-1]
	// Elapsed carries host compute time, which moves with machine load;
	// the shape claims are asserted on the terms the simulator models
	// from counted bytes: what each method stores and what it shuffles.
	rows := map[string]Fig11bRow{}
	for _, row := range res.Rows {
		if row.Scale == top {
			rows[row.Method] = row
		}
	}
	adj, tsv, disk := rows["TrillionG (ADJ6)"], rows["TrillionG (TSV)"], rows["RMAT/p-disk"]
	if adj.Elapsed == 0 || tsv.Elapsed == 0 || disk.Elapsed == 0 {
		t.Fatalf("missing cells: %v %v %v", adj.Elapsed, tsv.Elapsed, disk.Elapsed)
	}
	if adj.Bytes >= tsv.Bytes {
		t.Fatalf("ADJ6 output %d bytes not below TSV %d", adj.Bytes, tsv.Bytes)
	}
	if adj.StoreTime >= tsv.StoreTime {
		t.Fatalf("ADJ6 store %v not below TSV %v", adj.StoreTime, tsv.StoreTime)
	}
	// TrillionG ships no edges; RMAT/p shuffles every one of them.
	if adj.NetworkTime != 0 || tsv.NetworkTime != 0 || disk.NetworkTime == 0 {
		t.Fatalf("network time: ADJ6 %v and TSV %v want 0, RMAT/p-disk %v want > 0",
			adj.NetworkTime, tsv.NetworkTime, disk.NetworkTime)
	}
	if 2*(adj.StoreTime+adj.NetworkTime) > disk.StoreTime+disk.NetworkTime {
		t.Fatalf("TrillionG ADJ6 store+network %v not clearly below RMAT/p-disk %v",
			adj.StoreTime+adj.NetworkTime, disk.StoreTime+disk.NetworkTime)
	}
	res.Report().Print(&bytes.Buffer{})
}

func clusterForTest() cluster.Config {
	return cluster.Config{
		Machines: 4, ThreadsPerMachine: 2,
		BandwidthBytesPerSec: cluster.OneGbE, LatencySec: 0.001,
	}
}

func TestFig12Shapes(t *testing.T) {
	res, err := Fig12([]int{12, 13, 14, 15}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Time roughly doubles per scale; peak memory grows much slower
	// than time over the sweep.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	timeGrowth := float64(last.Elapsed) / float64(first.Elapsed)
	memGrowth := float64(last.PeakMem) / float64(first.PeakMem)
	if timeGrowth < 3 {
		t.Fatalf("time growth %v over 3 scales; expected ≈8", timeGrowth)
	}
	// Peak memory is O(d_max), which grows ≈1.52x per scale for this
	// seed (paper Fig 12b) vs 2x for time: ≈3.5x vs 8x over 3 scales.
	if memGrowth > 0.85*timeGrowth {
		t.Fatalf("memory growth %v not clearly below time growth %v", memGrowth, timeGrowth)
	}
	perScale := math.Pow(memGrowth, 1.0/3)
	if perScale > 1.8 {
		t.Fatalf("memory growth per scale %v; expected ≈1.52 (sublinear in |E|)", perScale)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig13Shapes(t *testing.T) {
	res, err := Fig13(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("cells %d", len(res.Rows))
	}
	allOff := res.Time(false, false, false)
	allOn := res.Time(true, true, true)
	if allOn == 0 || allOff == 0 {
		t.Fatal("missing cells")
	}
	// The paper reports ~8x end to end; require 1.5x to stay robust.
	if float64(allOff) < 1.5*float64(allOn) {
		t.Fatalf("all-on %v not clearly faster than all-off %v", allOn, allOff)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestFig14Shapes(t *testing.T) {
	const sc = 13
	res, err := Fig14([]int{sc}, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(method, network string) Fig14Row {
		row, ok := res.Row(method, network, sc)
		if !ok || row.Elapsed == 0 {
			t.Fatalf("missing cell %s %s", method, network)
		}
		return row
	}
	g1, gIB, t1 := cell("Graph500", "1G"), cell("Graph500", "IB"), cell("TrillionG", "1G")
	// Asserted on the simulator's deterministic terms only — modelled
	// network time (bytes over bandwidth) and counted construction work —
	// never on measured time, which moves with host load: Graph500 pays
	// heavily on 1G, almost nothing on IB, and TrillionG ~nothing either
	// way; Graph500 ships and re-sorts every edge it generates (|E| split
	// evenly over 60 workers, the rest dropped), TrillionG none.
	if g1.NetworkTime < 5*gIB.NetworkTime {
		t.Fatalf("Graph500 network 1G %v not ≫ IB %v", g1.NetworkTime, gIB.NetworkTime)
	}
	if t1.NetworkTime*5 > g1.NetworkTime {
		t.Fatalf("TrillionG 1G network %v not ≪ Graph500's %v", t1.NetworkTime, g1.NetworkTime)
	}
	for _, net := range []string{"1G", "IB"} {
		g5, tg := cell("Graph500", net), cell("TrillionG", net)
		if want := int64(16) << sc / 60 * 60; g5.Shuffled != want || tg.Shuffled != 0 {
			t.Fatalf("%s: edges shuffled g5 %d (want %d), tg %d (want 0)", net, g5.Shuffled, want, tg.Shuffled)
		}
		t.Logf("%s: construction ratio measured g5 %.3f tg %.3f", net, g5.ConstructionRatio, tg.ConstructionRatio)
	}
	res.Report().Print(&bytes.Buffer{})
}

func TestBalanceShapes(t *testing.T) {
	res, err := Balance(14, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"", ", NSKG noise 0.1"} {
		naive := res.Skew("equal vertex ranges" + suffix)
		planned := res.Skew("closed-form plan" + suffix)
		if naive < 1.5 {
			t.Fatalf("naive skew%s %v; skewed seed should imbalance equal ranges", suffix, naive)
		}
		if planned == 0 || planned > 1.2 {
			t.Fatalf("planned skew%s %v; the plan should balance within 20%%", suffix, planned)
		}
	}
	res.Report().Print(&bytes.Buffer{})
}
