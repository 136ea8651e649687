package main

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/stats"
	"repro/internal/validate"
)

// buildExpectReport is gstat's -expect-scale side alone: the files read
// once into a validation accumulator, then expectReport.
func buildExpectReport(files []string, f gformat.Format, cfg core.Config) (*validate.Report, error) {
	acc := validate.NewAccumulator()
	if _, err := ingestAll(files, f, acc); err != nil {
		return nil, err
	}
	return expectReport(acc, cfg)
}

// TestIngestOnePassFeedsEverySink: one read of a file counts the same
// degrees into gstat's counter and the validation accumulator as two
// separate reads do.
func TestIngestOnePassFeedsEverySink(t *testing.T) {
	path := genFixture(t)
	counter, acc := stats.NewDegreeCounter(), validate.NewAccumulator()
	edges, err := ingestAll([]string{path}, gformat.ADJ6, counter, acc)
	if err != nil {
		t.Fatal(err)
	}
	alone := stats.NewDegreeCounter()
	if n, err := ingest(path, gformat.ADJ6, alone); err != nil || n != edges {
		t.Fatalf("lone ingest: %d edges, %v; one pass counted %d", n, err, edges)
	}
	if !maps.Equal(counter.OutHist(), alone.OutHist()) || !maps.Equal(counter.InHist(), alone.InHist()) {
		t.Fatal("the shared pass counted other degrees than a lone one")
	}
	if acc.Edges() != edges {
		t.Fatalf("accumulator saw %d edges, counter %d", acc.Edges(), edges)
	}
	cfg := core.DefaultConfig(10)
	shared, err := expectReport(acc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	separate, err := buildExpectReport([]string{path}, gformat.ADJ6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := shared.JSON()
	b, _ := separate.JSON()
	if string(a) != string(b) {
		t.Fatalf("one-pass report differs from a separate read:\n%s\nvs\n%s", a, b)
	}
}

func TestIngestADJ6(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.adj6")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := gformat.NewADJ6Writer(f)
	w.WriteScope(1, []int64{2, 3, 4})
	w.WriteScope(5, []int64{2})
	w.Close()
	f.Close()

	counter := stats.NewDegreeCounter()
	n, err := ingest(path, gformat.ADJ6, counter)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("edges %d", n)
	}
	out := counter.OutHist()
	if out[3] != 1 || out[1] != 1 {
		t.Fatalf("out hist %v", out)
	}
	in := counter.InHist()
	if in[2] != 1 || in[1] != 2 { // vertex 2 has in-degree 2; vertices 3,4 have 1
		t.Fatalf("in hist %v", in)
	}
}

func TestIngestTSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tsv")
	if err := os.WriteFile(path, []byte("0\t1\n0\t2\n3\t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	counter := stats.NewDegreeCounter()
	n, err := ingest(path, gformat.TSV, counter)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestIngestCSR6(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr6")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gformat.NewCSR6Writer(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteScope(0, []int64{1, 2})
	w.WriteScope(3, []int64{0})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	counter := stats.NewDegreeCounter()
	n, err := ingest(path, gformat.CSR6, counter)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestIngestMissingFile(t *testing.T) {
	if _, err := ingest("/nonexistent", gformat.TSV, stats.NewDegreeCounter()); err == nil {
		t.Fatal("expected error")
	}
}

func TestCompareFlagPath(t *testing.T) {
	// Exercise the KS helper the -compare flag uses via two ingests.
	dir := t.TempDir()
	write := func(name string, scopes map[int64][]int64) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := gformat.NewADJ6Writer(f)
		for src, dsts := range scopes {
			if err := w.WriteScope(src, dsts); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		f.Close()
		return path
	}
	a := write("a.adj6", map[int64][]int64{0: {1, 2}, 3: {4}})
	b := write("b.adj6", map[int64][]int64{7: {1, 2}, 9: {4}})
	ca, cb := stats.NewDegreeCounter(), stats.NewDegreeCounter()
	if _, err := ingest(a, gformat.ADJ6, ca); err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(b, gformat.ADJ6, cb); err != nil {
		t.Fatal(err)
	}
	if ks := stats.KS(ca.OutHist(), cb.OutHist()); ks != 0 {
		t.Fatalf("identical degree profiles, KS %v", ks)
	}
}

// TestFlagSurface: the command's flags — names, types, defaults — are
// the ones testdata/flags.golden pins; none added, dropped or
// re-defaulted.
func TestFlagSurface(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	// -update is this test binary's own golden-rewrite flag (json_test.go).
	got := strings.Replace(cliflags.Surface(flag.CommandLine), "-update *flag.boolValue \"false\"\n", "", 1)
	if got != string(want) {
		t.Fatalf("flag surface\n got:\n%s\nwant:\n%s", got, want)
	}
}
