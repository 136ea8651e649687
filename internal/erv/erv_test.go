package erv

import (
	"errors"
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/stats"
)

func TestDistValidate(t *testing.T) {
	if err := (Dist{Kind: Zipfian, Slope: -1.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dist{Kind: Zipfian, Slope: 1}).Validate(); err == nil {
		t.Fatal("expected error for positive slope")
	}
	if err := (Dist{Kind: Gaussian}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dist{Kind: Uniform, Min: 1, Max: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Dist{Kind: Uniform, Min: 5, Max: 1}).Validate(); err == nil {
		t.Fatal("expected error for inverted bounds")
	}
	if err := (Dist{Kind: DistKind(9)}).Validate(); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestDistKindString(t *testing.T) {
	if Zipfian.String() != "zipfian" || Gaussian.String() != "gaussian" || Uniform.String() != "uniform" {
		t.Fatal("kind names wrong")
	}
}

func TestSeedForSlopes(t *testing.T) {
	for _, s := range []float64{-0.5, -1.662, -3} {
		out := SeedForOutSlope(s)
		if err := out.Validate(); err != nil {
			t.Fatalf("slope %v: %v", s, err)
		}
		if math.Abs(out.OutZipfSlope()-s) > 1e-12 {
			t.Fatalf("out slope %v, want %v", out.OutZipfSlope(), s)
		}
		in := SeedForInSlope(s)
		if err := in.Validate(); err != nil {
			t.Fatalf("slope %v: %v", s, err)
		}
		if math.Abs(in.InZipfSlope()-s) > 1e-12 {
			t.Fatalf("in slope %v, want %v", in.InZipfSlope(), s)
		}
	}
}

func TestPrefixRowMassAgainstBruteForce(t *testing.T) {
	const levels = 10
	a, b := 0.7, 0.3
	w := func(u int64) float64 {
		ones := 0
		for x := u; x != 0; x &= x - 1 {
			ones++
		}
		return math.Pow(a, float64(levels-ones)) * math.Pow(b, float64(ones))
	}
	var sum float64
	for n := int64(0); n <= 1<<levels; n++ {
		got := prefixRowMass(a, b, n, levels)
		if math.Abs(got-sum) > 1e-12 {
			t.Fatalf("prefixRowMass(%d) = %v, brute force %v", n, got, sum)
		}
		if n < 1<<levels {
			sum += w(n)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{
		NumSrc: 100, NumDst: 50, NumEdges: 1000,
		OutDist: Dist{Kind: Zipfian, Slope: -1.5},
		InDist:  Dist{Kind: Gaussian},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.NumSrc = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected src range error")
	}
	bad = ok
	bad.NumEdges = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected edges error")
	}
}

// TestRangeErrorTyped: unusable rectangles surface from New as a
// *erv.RangeError (never a panic), so spec layers can recognize them
// with errors.As.
func TestRangeErrorTyped(t *testing.T) {
	base := Config{
		NumSrc: 100, NumDst: 50, NumEdges: 1000,
		OutDist: Dist{Kind: Zipfian, Slope: -1.5},
		InDist:  Dist{Kind: Gaussian},
	}
	cases := map[string]struct {
		rows, cols int64
	}{
		"zero rows":     {0, 50},
		"zero cols":     {100, 0},
		"zero both":     {0, 0},
		"inverted rows": {-3, 50},
		"inverted cols": {100, -7},
	}
	for name, tc := range cases {
		cfg := base
		cfg.NumSrc, cfg.NumDst = tc.rows, tc.cols
		g, err := New(cfg)
		if g != nil || err == nil {
			t.Fatalf("%s: New = (%v, %v), want typed error", name, g, err)
		}
		var rerr *RangeError
		if !errors.As(err, &rerr) {
			t.Fatalf("%s: error %v is not a *RangeError", name, err)
		}
		if rerr.Rows != tc.rows || rerr.Cols != tc.cols {
			t.Fatalf("%s: RangeError reports %d×%d, want %d×%d", name, rerr.Rows, rerr.Cols, tc.rows, tc.cols)
		}
	}
	// A valid rectangle with another defect is NOT a RangeError.
	cfg := base
	cfg.NumEdges = -1
	var rerr *RangeError
	if _, err := New(cfg); err == nil || errors.As(err, &rerr) {
		t.Fatalf("negative budget: got %v, want a non-range error", cfg)
	}
}

// TestRangeErrorMessage pins the axis diagnostics.
func TestRangeErrorMessage(t *testing.T) {
	for e, want := range map[*RangeError]string{
		{Rows: 0, Cols: 5}:  "empty row range",
		{Rows: 5, Cols: 0}:  "empty column range",
		{Rows: -2, Cols: 5}: "inverted row extent -2",
	} {
		if msg := e.Error(); !strings.Contains(msg, want) {
			t.Fatalf("Error() = %q, want it to mention %q", msg, want)
		}
	}
}

// TestScopeSizesSumToBudget: Theorem 1 over the truncated range — total
// edges ≈ NumEdges.
func TestScopeSizesSumToBudget(t *testing.T) {
	g, err := New(Config{
		NumSrc: 3000, NumDst: 5000, NumEdges: 60000,
		OutDist: Dist{Kind: Zipfian, Slope: -1.662},
		InDist:  Dist{Kind: Gaussian},
	})
	if err != nil {
		t.Fatal(err)
	}
	total, err := generate(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(total)-60000) > 0.05*60000 {
		t.Fatalf("total %d, want ≈ 60000", total)
	}
}

// TestOutZipfianInGaussian reproduces the Figure 10 configuration:
// researcher→paper with Zipfian out-degrees and Gaussian in-degrees.
func TestOutZipfianInGaussian(t *testing.T) {
	const numSrc, numDst, numEdges = 4096, 3000, 1 << 17
	g, err := New(Config{
		NumSrc: numSrc, NumDst: numDst, NumEdges: numEdges,
		OutDist: Dist{Kind: Zipfian, Slope: -1.662},
		InDist:  Dist{Kind: Gaussian},
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := stats.NewDegreeCounter()
	if _, err := generate(g, 3, func(src int64, dsts []int64) error {
		counter.AddScope(src, dsts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Out side: heavy-tailed. Popcount-class means follow the slope.
	outBy := counter.OutByVertex()
	classSum := make(map[int]float64)
	classN := make(map[int]float64)
	for u, d := range outBy {
		ones := 0
		for x := u; x != 0; x &= x - 1 {
			ones++
		}
		classSum[ones] += float64(d)
		classN[ones]++
	}
	var xs, ys []float64
	for k, n := range classN {
		if n < 16 {
			continue
		}
		mean := classSum[k] / n
		if mean < 2 {
			continue
		}
		xs = append(xs, float64(k))
		ys = append(ys, math.Log2(mean))
	}
	slope, _, r2 := stats.LinearFit(xs, ys)
	if math.Abs(slope-(-1.662)) > 0.12 || r2 < 0.98 {
		t.Fatalf("out class slope %v (r2 %v), want ≈ −1.662", slope, r2)
	}
	// In side: Gaussian around |E|/|Vdst|.
	inDeg := counter.InDegrees()
	mean, _ := stats.MeanStd(inDeg)
	wantMean := float64(numEdges) / numDst
	if math.Abs(mean-wantMean) > 0.05*wantMean {
		t.Fatalf("in mean %v, want ≈ %v", mean, wantMean)
	}
	if ks := stats.KSAgainstNormal(inDeg); ks > 0.05 {
		t.Fatalf("in-degree KS vs normal %v too high", ks)
	}
	if sk := stats.Skewness(inDeg); math.Abs(sk) > 0.3 {
		t.Fatalf("in-degree skewness %v; expected symmetric", sk)
	}
}

// TestInZipfian: the destination side can be made heavy-tailed too.
func TestInZipfian(t *testing.T) {
	g, err := New(Config{
		NumSrc: 2048, NumDst: 2048, NumEdges: 1 << 15,
		OutDist: Dist{Kind: Gaussian},
		InDist:  Dist{Kind: Zipfian, Slope: -1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := stats.NewDegreeCounter()
	if _, err := generate(g, 9, func(src int64, dsts []int64) error {
		counter.AddScope(src, dsts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sk := stats.Skewness(counter.InDegrees()); sk < 1 {
		t.Fatalf("in-degree skewness %v; expected heavy tail", sk)
	}
	// The out side stays symmetric-ish.
	if sk := stats.Skewness(counter.OutDegrees()); math.Abs(sk) > 0.5 {
		t.Fatalf("out-degree skewness %v; expected Gaussian", sk)
	}
}

// TestDestinationsInRange: rectangular ranges confine destinations.
func TestDestinationsInRange(t *testing.T) {
	g, err := New(Config{
		NumSrc: 100, NumDst: 37, NumEdges: 2000,
		OutDist: Dist{Kind: Zipfian, Slope: -1},
		InDist:  Dist{Kind: Zipfian, Slope: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generate(g, 5, func(src int64, dsts []int64) error {
		if src < 0 || src >= 100 {
			t.Fatalf("src %d out of range", src)
		}
		for _, d := range dsts {
			if d < 0 || d >= 37 {
				t.Fatalf("dst %d out of range", d)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDedupVsDuplicates: by default scopes are duplicate-free; with
// AllowDuplicates the same destination can repeat (gMark's flaw, which
// Section 6.2 contrasts against).
func TestDedupVsDuplicates(t *testing.T) {
	base := Config{
		NumSrc: 4, NumDst: 8, NumEdges: 48, // dense: duplicates inevitable
		OutDist: Dist{Kind: Gaussian},
		InDist:  Dist{Kind: Zipfian, Slope: -2},
	}
	g, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generate(g, 1, func(src int64, dsts []int64) error {
		seen := make(map[int64]bool)
		for _, d := range dsts {
			if seen[d] {
				t.Fatalf("duplicate destination %d with dedup on", d)
			}
			seen[d] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dup := base
	dup.AllowDuplicates = true
	gd, err := New(dup)
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	for seed := uint64(1); seed < 20 && !foundDup; seed++ {
		if _, err := generate(gd, seed, func(src int64, dsts []int64) error {
			seen := make(map[int64]bool)
			for _, d := range dsts {
				if seen[d] {
					foundDup = true
				}
				seen[d] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !foundDup {
		t.Fatal("AllowDuplicates never produced a duplicate in a dense block")
	}
}

// TestUniformOutDegrees: degrees land in [Min, Max].
func TestUniformOutDegrees(t *testing.T) {
	g, err := New(Config{
		NumSrc: 500, NumDst: 1000, NumEdges: 1, // budget unused by Uniform
		OutDist: Dist{Kind: Uniform, Min: 2, Max: 5},
		InDist:  Dist{Kind: Gaussian},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generate(g, 11, func(src int64, dsts []int64) error {
		if len(dsts) < 2 || len(dsts) > 5 {
			t.Fatalf("uniform degree %d outside [2,5]", len(dsts))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUniformSpanOverflowRejected: a uniform span whose degree count
// Max−Min+1 overflows an int64 is a validation error, not a panic in
// the first draw.
func TestUniformSpanOverflowRejected(t *testing.T) {
	huge := Dist{Kind: Uniform, Min: 0, Max: math.MaxInt64}
	if err := huge.Validate(); err == nil {
		t.Fatal("expected error for a span of 2^63 degrees")
	}
	if _, err := New(Config{NumSrc: 60, NumDst: 40, NumEdges: 1, OutDist: huge, InDist: Dist{Kind: Gaussian}}); err == nil {
		t.Fatal("New accepted a span of 2^63 degrees")
	}
	if err := (Dist{Kind: Uniform, Min: 1, Max: math.MaxInt64}).Validate(); err != nil {
		t.Fatalf("a span of 2^63−1 degrees fits: %v", err)
	}
}

// TestUniformOutDegreesClampToRange: a uniform out-degree above the
// destination range is clamped to it, as binomial and empirical draws
// are, so a deduplicated row never asks for more destinations than
// exist (or for trillions of them). With duplicates allowed the draw
// stands.
func TestUniformOutDegreesClampToRange(t *testing.T) {
	for _, out := range []Dist{
		{Kind: Uniform, Min: 4_000_000_000_000, Max: 4_000_000_000_000},
		{Kind: Uniform, Min: 1, Max: math.MaxInt64},
		{Kind: Uniform, Min: 50, Max: 60},
	} {
		g, err := New(Config{NumSrc: 60, NumDst: 40, NumEdges: 1, OutDist: out, InDist: Dist{Kind: Gaussian}})
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		if _, err := generate(g, 5, func(src int64, dsts []int64) error {
			rows++
			if len(dsts) != 40 {
				t.Fatalf("%v: row %d has %d destinations, want all 40", out, src, len(dsts))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if rows != 60 {
			t.Fatalf("%v: %d rows emitted, want 60", out, rows)
		}
	}
	g, err := New(Config{NumSrc: 60, NumDst: 40, NumEdges: 1, AllowDuplicates: true,
		OutDist: Dist{Kind: Uniform, Min: 50, Max: 60}, InDist: Dist{Kind: Gaussian}})
	if err != nil {
		t.Fatal(err)
	}
	if d := g.ScopeSize(0, rng.New(1)); d < 50 || d > 60 {
		t.Fatalf("with duplicates allowed the degree %d left [50, 60]", d)
	}
}

// TestGraph500SlopeConstant: the paper's Section 6.1 example — the
// Graph500 seed corresponds to slope −1.662.
func TestGraph500SlopeConstant(t *testing.T) {
	if math.Abs(skg.Graph500Seed.OutZipfSlope()-(-1.662)) > 1e-2 {
		t.Fatalf("Graph500 slope %v", skg.Graph500Seed.OutZipfSlope())
	}
}

// TestDeterministic: same seed → same totals.
func TestDeterministic(t *testing.T) {
	cfg := Config{
		NumSrc: 1000, NumDst: 1000, NumEdges: 10000,
		OutDist: Dist{Kind: Zipfian, Slope: -1.5},
		InDist:  Dist{Kind: Zipfian, Slope: -1.5},
	}
	g1, _ := New(cfg)
	g2, _ := New(cfg)
	t1, err := generate(g1, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := generate(g2, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatalf("totals differ: %d vs %d", t1, t2)
	}
}

// TestScopeSteadyStateAllocs is the twin of avs's test of the same
// name: with a reused buffer and a reseeded Source, a warmed-up
// generator draws scopes without touching the heap. NumDst 5000 puts
// hub rows on the dedup set's bitmap tier and tail rows on its table.
func TestScopeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, err := New(Config{
		NumSrc: 256, NumDst: 5000, NumEdges: 20000,
		OutDist: Dist{Kind: Zipfian, Slope: -1.5},
		InDist:  Dist{Kind: Zipfian, Slope: -1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var (
		src rng.Source
		buf []int64
	)
	pass := func() {
		for u := int64(0); u < 256; u++ {
			src.Reseed(77, uint64(u))
			buf = g.Scope(u, &src, buf)
		}
	}
	pass() // warm-up: grows buf and the dedup storage
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("%v allocations per 256 steady-state scopes, want 0", n)
	}
}

// TestRowMassTableMatchesPow: the popcount table returns the bits of the
// two-math.Pow product per source it replaced, so binomial means and
// scope sizes cannot move.
func TestRowMassTableMatchesPow(t *testing.T) {
	for _, numSrc := range []int64{1, 37, 1 << 12, 1<<47 - 3} {
		for _, out := range []Dist{{Kind: Zipfian, Slope: -1.662}, {Kind: Gaussian}} {
			g, err := New(Config{NumSrc: numSrc, NumDst: 10, NumEdges: 100, OutDist: out, InDist: Dist{Kind: Gaussian}})
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(uint64(numSrc))
			for i := 0; i < 500; i++ {
				u := src.Int63n(numSrc)
				ones := bits.OnesCount64(uint64(u))
				want := math.Pow(g.outA, float64(g.srcLevels-ones)) * math.Pow(g.outB, float64(ones))
				if got := g.rowMass(u); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("NumSrc %d %v u %d: table %v, math.Pow %v", numSrc, out.Kind, u, got, want)
				}
			}
		}
	}
}

func TestScopeSizeOutOfRange(t *testing.T) {
	g, err := New(Config{
		NumSrc: 10, NumDst: 10, NumEdges: 100,
		OutDist: Dist{Kind: Zipfian, Slope: -1},
		InDist:  Dist{Kind: Gaussian},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ScopeSize(-1, rng.New(1)); got != 0 {
		t.Fatalf("ScopeSize(-1) = %d", got)
	}
	if got := g.ScopeSize(10, rng.New(1)); got != 0 {
		t.Fatalf("ScopeSize(10) = %d", got)
	}
}

// TestEmpiricalOutDegrees: the data-dictionary extension — out-degrees
// follow the supplied frequency table exactly (chi-square).
func TestEmpiricalOutDegrees(t *testing.T) {
	// Degrees 0..5 with lumpy frequencies; index = degree.
	weights := []float64{0, 10, 0, 5, 1, 4}
	g, err := New(Config{
		NumSrc: 40000, NumDst: 1 << 16, NumEdges: 1,
		OutDist: Dist{Kind: Empirical, Weights: weights},
		InDist:  Dist{Kind: Gaussian},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, len(weights))
	if _, err := generate(g, 3, nil); err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	for u := int64(0); u < g.cfg.NumSrc; u++ {
		counts[g.ScopeSize(u, src)]++
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	expect := make([]float64, len(weights))
	for d, w := range weights {
		expect[d] = float64(g.cfg.NumSrc) * w / total
	}
	if counts[0] > 0 || counts[2] > 0 {
		t.Fatalf("zero-frequency degrees sampled: %v", counts)
	}
	if stat := stats.ChiSquare(counts, expect, 5); stat > 25 { // 3 dof
		t.Fatalf("chi-square %v, counts %v", stat, counts)
	}
}

// TestEmpiricalInBuckets: destination mass per bucket follows the
// popularity histogram.
func TestEmpiricalInBuckets(t *testing.T) {
	weights := []float64{1, 0, 3, 6} // four buckets over the range
	g, err := New(Config{
		NumSrc: 2000, NumDst: 4000, NumEdges: 40000,
		OutDist: Dist{Kind: Gaussian},
		InDist:  Dist{Kind: Empirical, Weights: weights},
	})
	if err != nil {
		t.Fatal(err)
	}
	bucketCounts := make([]float64, len(weights))
	var total float64
	if _, err := generate(g, 7, func(src int64, dsts []int64) error {
		for _, d := range dsts {
			bucketCounts[d*int64(len(weights))/4000]++
			total++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bucketCounts[1] > 0 {
		t.Fatalf("zero-weight bucket received %v edges", bucketCounts[1])
	}
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	for b, w := range weights {
		want := total * w / wsum
		if w == 0 {
			continue
		}
		if math.Abs(bucketCounts[b]-want) > 0.05*want+30 {
			t.Fatalf("bucket %d got %v edges, want ≈ %v", b, bucketCounts[b], want)
		}
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if err := (Dist{Kind: Empirical}).Validate(); err == nil {
		t.Fatal("expected error for missing weights")
	}
	if err := (Dist{Kind: Empirical, Weights: []float64{0, 0}}).Validate(); err == nil {
		t.Fatal("expected error for zero weights")
	}
	if err := (Dist{Kind: Empirical, Weights: []float64{1, -2}}).Validate(); err == nil {
		t.Fatal("expected error for negative weight")
	}
	if err := (Dist{Kind: Empirical, Weights: []float64{1, 2}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if Empirical.String() != "empirical" {
		t.Fatal("kind name")
	}
}

// TestMaxExpectedOutDegree: the generator's d̂_max, which picks its
// dedup tier, is the largest expected out-degree of each out-
// distribution — Kout's heaviest row mass, Uniform's Max, Empirical's
// largest degree — clamped to [1, NumDst].
func TestMaxExpectedOutDegree(t *testing.T) {
	zipf := Dist{Kind: Zipfian, Slope: -1.5}
	for _, tc := range []struct {
		cfg  Config
		want func(g *Generator) float64
	}{
		{Config{NumSrc: 1000, NumDst: 5000, NumEdges: 20000, OutDist: zipf, InDist: zipf}, func(g *Generator) float64 {
			var top float64
			for u := range g.cfg.NumSrc {
				top = max(top, float64(g.cfg.NumEdges)*g.ScopeSizeProb(u))
			}
			return math.Ceil(top)
		}},
		{Config{NumSrc: 10, NumDst: 5000, NumEdges: 1, OutDist: Dist{Kind: Uniform, Min: 3, Max: 70}, InDist: zipf}, func(*Generator) float64 { return 70 }},
		{Config{NumSrc: 10, NumDst: 50, NumEdges: 1, OutDist: Dist{Kind: Uniform, Min: 3, Max: 70}, InDist: zipf}, func(*Generator) float64 { return 50 }},
		{Config{NumSrc: 10, NumDst: 5000, NumEdges: 1, OutDist: Dist{Kind: Empirical, Weights: []float64{1, 0, 2, 0}}, InDist: zipf}, func(*Generator) float64 { return 3 }},
		{Config{NumSrc: 10, NumDst: 5000, NumEdges: 1, OutDist: Dist{Kind: Empirical, Weights: []float64{1}}, InDist: zipf}, func(*Generator) float64 { return 1 }},
	} {
		g, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.want(g); math.Abs(float64(g.reach)-want) > 1 {
			t.Errorf("%v out-degrees over %d columns: d̂_max %d, want %v", tc.cfg.OutDist.Kind, tc.cfg.NumDst, g.reach, want)
		}
	}
}
