package core

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/gformat"
	"repro/internal/skg"
	"repro/internal/stats"
)

func TestConfigBasics(t *testing.T) {
	cfg := DefaultConfig(10)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumVertices() != 1024 || cfg.NumEdges() != 16384 {
		t.Fatalf("sizes %d/%d", cfg.NumVertices(), cfg.NumEdges())
	}
	bad := cfg
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected scale error")
	}
	bad = cfg
	bad.EdgeFactor = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected edge factor error")
	}
	bad = cfg
	bad.NoiseParam = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected noise error")
	}
	// A noise between γ and β would make γ+µ negative at some level.
	bad = cfg
	bad.Seed = skg.Seed{A: 0.5, B: 0.3, C: 0.05, D: 0.15}
	bad.NoiseParam = 0.05
	if err := bad.Validate(); err != nil {
		t.Fatalf("noise γ on an asymmetric seed rejected: %v", err)
	}
	bad.NoiseParam = 0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected noise error above γ on an asymmetric seed")
	}
	bad = cfg
	bad.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected workers error")
	}
	// The big.Float vector would draw destinations without the noise.
	bad = cfg
	bad.HighPrecision, bad.NoiseParam = true, 0.1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "high precision") {
		t.Fatalf("high precision with noise: err = %v", err)
	}
}

func TestGenerateEdgeCount(t *testing.T) {
	cfg := DefaultConfig(12)
	st, err := Generate(cfg, DiscardSinks(gformat.ADJ6))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.NumEdges())
	if math.Abs(float64(st.Edges)-want) > 0.03*want {
		t.Fatalf("edges %d, want ≈ %d", st.Edges, cfg.NumEdges())
	}
	if st.MaxDegree <= 0 || st.Attempts < st.Edges {
		t.Fatalf("stats implausible: %+v", st)
	}
	if st.BytesWritten == 0 {
		t.Fatal("no bytes accounted")
	}
}

// TestDeterministicAcrossWorkerCounts: the graph is identical whether
// generated by 1 or 7 workers — the repo-wide determinism contract.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	collect := func(workers int) map[int64][]int64 {
		cfg := DefaultConfig(10)
		cfg.Workers = workers
		out := make(map[int64][]int64)
		_, err := Generate(cfg, CallbackSinks(func(src int64, dsts []int64) error {
			out[src] = append([]int64(nil), dsts...)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(1), collect(7)
	if len(a) != len(b) {
		t.Fatalf("scope counts differ: %d vs %d", len(a), len(b))
	}
	for src, dsts := range a {
		if !reflect.DeepEqual(dsts, b[src]) {
			t.Fatalf("scope %d differs across worker counts", src)
		}
	}
}

// TestScopesDisjointAndComplete: every vertex appears exactly once
// across all workers (partition correctness through the full pipeline).
func TestScopesDisjointAndComplete(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 5
	seen := make(map[int64]int)
	if _, err := Generate(cfg, CallbackSinks(func(src int64, dsts []int64) error {
		seen[src]++
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	for src, n := range seen {
		if n != 1 {
			t.Fatalf("vertex %d generated %d times", src, n)
		}
	}
	// Scopes with zero planned edges never reach the sink; all others do.
	if len(seen) < 400 {
		t.Fatalf("only %d scopes emitted", len(seen))
	}
}

// TestPeakMemoryIsDmaxScale: tracked peak is a small multiple of
// d_max·8B, far below |E|·16B — Table 1's O(d_max) column.
func TestPeakMemoryIsDmaxScale(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Workers = 2
	st, err := Generate(cfg, DiscardSinks(gformat.ADJ6))
	if err != nil {
		t.Fatal(err)
	}
	edgeSetBytes := st.Edges * 16
	if st.PeakWorkerBytes*20 > edgeSetBytes {
		t.Fatalf("peak %d not ≪ edge-set %d", st.PeakWorkerBytes, edgeSetBytes)
	}
	if st.PeakWorkerBytes < st.MaxDegree*8 {
		t.Fatalf("peak %d below d_max floor %d", st.PeakWorkerBytes, st.MaxDegree*8)
	}
}

// TestGenerateSteadyStateAllocs: once a process has generated, a run
// allocates a fixed set of values — its plan, writers, scheduler and
// Scoper — and nothing per row or per edge: each row is drawn straight
// into its pooled chunk and deduplicated through the thread's pooled
// set. Counted on one thread into DiscardSinks, a Scale-14 run allocates
// exactly as often as a Scale-12 one, with 4× the rows and edges and a
// larger hub row, and under 1 KiB more: the few tables sized by levels.
// (A scope buffer of d_max and a |V|-bit set made per run would add
// tens of KiB.)
func TestGenerateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(scale int) (count float64, bytes uint64) {
		cfg := DefaultConfig(scale)
		cfg.Workers = 1
		run := func() {
			if _, err := Generate(cfg, DiscardSinks(gformat.ADJ6)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the pooled head chunk and dedup set
		count = testing.AllocsPerRun(5, run)
		// As AllocsPerRun does, run on one P: a pooled value put on one P
		// is not found by a Get on another. A collection moves the pool to
		// its victim cache, which the next run still takes from; runs this
		// small trigger no second one.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 5 {
			run()
		}
		runtime.ReadMemStats(&after)
		return count, (after.TotalAlloc - before.TotalAlloc) / 5
	}
	smallCount, smallBytes := allocs(12)
	largeCount, largeBytes := allocs(14)
	if smallCount != largeCount || largeBytes > smallBytes+1024 {
		t.Errorf("a Scale-14 run allocates %v times, %d bytes; a Scale-12 run %v times, %d bytes: the draw allocates with rows or edges",
			largeCount, largeBytes, smallCount, smallBytes)
	}
}

// TestFileSinksRoundTrip: generate to ADJ6 part files, read them back,
// and confirm edge counts match the run's stats.
func TestFileSinksADJ6RoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(9)
	cfg.Workers = 3
	st, err := Generate(cfg, FileSinks(dir, gformat.ADJ6, cfg.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "part-*.adj6"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("part files %d", len(files))
	}
	var edges int64
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r := gformat.NewADJ6Reader(f)
		for {
			_, dsts, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			edges += int64(len(dsts))
		}
		f.Close()
	}
	if edges != st.Edges {
		t.Fatalf("files hold %d edges, stats say %d", edges, st.Edges)
	}
}

// TestFileSinksCSR6: CSR part files parse and their per-part degrees sum
// to the run total.
func TestFileSinksCSR6(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	st, err := Generate(cfg, FileSinks(dir, gformat.CSR6, cfg.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "part-*.csr6"))
	var edges int64
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gformat.ReadCSR6(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		edges += g.NumEdges()
		for v := int64(0); v < g.NumVertices; v++ {
			adj := g.Adj(v)
			if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
				t.Fatalf("CSR adjacency of %d unsorted", v)
			}
		}
	}
	if edges != st.Edges {
		t.Fatalf("CSR holds %d edges, stats say %d", edges, st.Edges)
	}
}

// TestTSVSinkParses: the TSV output parses back to the same edge count.
func TestFileSinksTSV(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig(8)
	cfg.Workers = 1
	st, err := Generate(cfg, FileSinks(dir, gformat.TSV, cfg.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "part-00000.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := gformat.NewTSVReader(f)
	var edges int64
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		edges++
	}
	if edges != st.Edges {
		t.Fatalf("TSV holds %d edges, stats say %d", edges, st.Edges)
	}
}

// TestNoisyGeneration: NSKG mode runs and smooths the degree plot
// relative to the noise-free run (the Figure 9 direction).
func TestNoisyGenerationSmooths(t *testing.T) {
	osc := func(noise float64) float64 {
		cfg := DefaultConfig(13)
		cfg.NoiseParam = noise
		cfg.Workers = 2
		counter := stats.NewDegreeCounter()
		if _, err := Generate(cfg, CallbackSinks(func(src int64, dsts []int64) error {
			counter.AddScope(src, dsts)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		return stats.Oscillation(counter.OutHist())
	}
	clean, noisy := osc(0), osc(0.1)
	if noisy >= clean {
		t.Fatalf("oscillation with noise %v not below noise-free %v", noisy, clean)
	}
}

// TestHighPrecisionRuns: the BigDecimal-style mode generates a valid
// graph (smaller scale; big.Float is slow).
func TestHighPrecisionRuns(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.HighPrecision = true
	cfg.Workers = 1
	st, err := Generate(cfg, DiscardSinks(gformat.ADJ6))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.NumEdges())
	if math.Abs(float64(st.Edges)-want) > 0.1*want {
		t.Fatalf("edges %d, want ≈ %d", st.Edges, cfg.NumEdges())
	}
}

// TestGenerateSeqForcesOneWorker.
func TestGenerateSeq(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Workers = 8
	st, err := GenerateSeq(cfg, DiscardSinks(gformat.ADJ6))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ranges) != 1 {
		t.Fatalf("seq used %d ranges", len(st.Ranges))
	}
}
