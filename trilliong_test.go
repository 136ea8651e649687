package trilliong

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/gformat"
)

func TestNewDefaults(t *testing.T) {
	cfg := New(12)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != Graph500Seed || cfg.EdgeFactor != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.NumVertices() != 4096 || cfg.NumEdges() != 65536 {
		t.Fatalf("sizes wrong: %d/%d", cfg.NumVertices(), cfg.NumEdges())
	}
	if !cfg.Opts.ReuseVector || !cfg.Opts.SparseRecursion || !cfg.Opts.SingleRandom {
		t.Fatal("production options not set")
	}
}

func TestGenerateToDirADJ6(t *testing.T) {
	dir := t.TempDir()
	cfg := New(10)
	cfg.Workers = 2
	st, err := cfg.GenerateToDir(dir, ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "part-*.adj6"))
	if len(files) != 2 {
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
		t.Fatalf("files hold %d, stats %d", edges, st.Edges)
	}
}

func TestGenerateFuncMatchesCount(t *testing.T) {
	cfg := New(10)
	var streamed int64
	st, err := cfg.GenerateFunc(func(src int64, dsts []int64) error {
		streamed += int64(len(dsts))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != st.Edges {
		t.Fatalf("streamed %d, stats %d", streamed, st.Edges)
	}
	want := float64(cfg.NumEdges())
	if math.Abs(float64(st.Edges)-want) > 0.05*want {
		t.Fatalf("edges %d, want ≈ %d", st.Edges, cfg.NumEdges())
	}
}

func TestCountChargesFormatBytes(t *testing.T) {
	cfg := New(10)
	adj, err := cfg.Count(ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	tsv, err := cfg.Count(TSV)
	if err != nil {
		t.Fatal(err)
	}
	if adj.BytesWritten == 0 || tsv.BytesWritten == 0 {
		t.Fatal("no bytes charged")
	}
	if tsv.BytesWritten <= adj.BytesWritten {
		t.Fatalf("TSV %d should exceed ADJ6 %d at this ID width... (IDs are short at scale 10, but 2 IDs+2 separators beat 10+6n only for tiny degrees)", tsv.BytesWritten, adj.BytesWritten)
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]Format{"tsv": TSV, "adj6": ADJ6, "csr6": CSR6} {
		got, err := ParseFormat(name)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseFormat("parquet"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMaxNoise(t *testing.T) {
	if got := MaxNoise(Graph500Seed); math.Abs(got-0.19) > 1e-12 {
		t.Fatalf("MaxNoise = %v", got)
	}
	if got := MaxNoise(Seed{A: 0.5, B: 0.3, C: 0.05, D: 0.15}); got != 0.05 {
		t.Fatalf("MaxNoise of a seed with γ < β = %v, want γ", got)
	}
}

// TestDeterminismProperty: for random master seeds, two runs agree on
// the edge count exactly.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint16) bool {
		cfg := New(8)
		cfg.MasterSeed = uint64(seed)
		a, err := cfg.Count(ADJ6)
		if err != nil {
			return false
		}
		b, err := cfg.Count(ADJ6)
		if err != nil {
			return false
		}
		return a.Edges == b.Edges && a.Attempts == b.Attempts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRichSchemaFacade(t *testing.T) {
	s := BibliographySchema(4096, 1<<14)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	counts, err := s.Generate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts["author"] == 0 {
		t.Fatal("no author edges")
	}
	if math.Abs(SeedForOutSlope(-1.5).OutZipfSlope()-(-1.5)) > 1e-12 {
		t.Fatal("SeedForOutSlope wrong")
	}
	if math.Abs(SeedForInSlope(-1.5).InZipfSlope()-(-1.5)) > 1e-12 {
		t.Fatal("SeedForInSlope wrong")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := New(0)
	if _, err := cfg.Count(ADJ6); err == nil {
		t.Fatal("expected validation error via Count")
	}
	cfg = New(10)
	cfg.NoiseParam = 1
	if _, err := cfg.GenerateFunc(nil); err == nil {
		t.Fatal("expected noise validation error")
	}
	if _, err := cfg.GenerateToDir(t.TempDir(), ADJ6); err == nil {
		t.Fatal("expected noise validation error via GenerateToDir")
	}
}
