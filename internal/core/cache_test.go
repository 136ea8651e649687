package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func openStoreAt(t *testing.T, root string, tel *telemetry.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(root, store.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func openStore(t *testing.T, tel *telemetry.Registry) *store.Store {
	t.Helper()
	return openStoreAt(t, filepath.Join(t.TempDir(), "store"), tel)
}

func globParts(t *testing.T, dir, ext string) []string {
	t.Helper()
	parts, err := filepath.Glob(filepath.Join(dir, "part-*."+ext))
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// TestWarmStoreRegeneratesNothing is the headline acceptance test: a
// cold run populates the store; an identical run into a fresh directory
// regenerates zero ranges — every part is a store hit — and the output
// is bit-identical.
func TestWarmStoreRegeneratesNothing(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Workers = 4
	cfg.MasterSeed = 99
	root := filepath.Join(t.TempDir(), "store")
	st := openStoreAt(t, root, telemetry.NewRegistry())

	cold := t.TempDir()
	coldStats, err := ResumeToDirStore(cfg, cold, gformat.ADJ6, st)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Edges == 0 || coldStats.PartsFromCache != 0 {
		t.Fatalf("cold stats = %+v", coldStats)
	}
	if got := st.Stats().Ingests; got != 4 {
		t.Fatalf("cold run ingested %d parts, want 4", got)
	}

	// Reopen the store (fresh registry, index rebuilt from disk) so the
	// warm run's counters measure only itself — and so a different
	// process sharing the store directory is what's being modeled.
	tel := telemetry.NewRegistry()
	st = openStoreAt(t, root, tel)
	warm := t.TempDir()
	warmStats, err := ResumeToDirStore(cfg, warm, gformat.ADJ6, st)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.PartsFromCache != 4 {
		t.Fatalf("warm run: PartsFromCache = %d, want 4", warmStats.PartsFromCache)
	}
	if warmStats.Edges != 0 {
		t.Fatalf("warm run generated %d edges, want 0 (all cached)", warmStats.Edges)
	}
	if hits, misses := tel.CounterValue(store.MetricHits), tel.CounterValue(store.MetricMisses); hits != 4 || misses != 0 {
		t.Fatalf("store hits=%d misses=%d, want 4/0", hits, misses)
	}

	coldParts := globParts(t, cold, "adj6")
	if len(coldParts) != 4 {
		t.Fatalf("cold parts: %v", coldParts)
	}
	for _, p := range coldParts {
		name := filepath.Base(p)
		if !bytes.Equal(readFile(t, p), readFile(t, filepath.Join(warm, name))) {
			t.Fatalf("cached part %s differs from generated", name)
		}
	}
}

// TestCorruptStoreEntryRegenerated: a damaged cached part must be
// caught by the read-time checksum, evicted, and regenerated — with
// identical output.
func TestCorruptStoreEntryRegenerated(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 2
	tel := telemetry.NewRegistry()
	st := openStore(t, tel)

	cold := t.TempDir()
	if _, err := ResumeToDirStore(cfg, cold, gformat.TSV, st); err != nil {
		t.Fatal(err)
	}
	ranges, err := Plan(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CorruptForTest(PartKey(cfg, gformat.TSV, ranges[1])); err != nil {
		t.Fatal(err)
	}

	warm := t.TempDir()
	stats, err := ResumeToDirStore(cfg, warm, gformat.TSV, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartsFromCache != 1 {
		t.Fatalf("PartsFromCache = %d, want 1 (one part corrupt)", stats.PartsFromCache)
	}
	if stats.Edges == 0 {
		t.Fatal("corrupt part was not regenerated")
	}
	if got := tel.CounterValue(store.MetricVerifyFailures); got != 1 {
		t.Fatalf("verify_failures = %d, want 1", got)
	}
	for _, p := range globParts(t, cold, "tsv") {
		name := filepath.Base(p)
		if !bytes.Equal(readFile(t, p), readFile(t, filepath.Join(warm, name))) {
			t.Fatalf("part %s differs after corrupt-entry regeneration", name)
		}
	}
	// The regenerated part was re-ingested: a third run is all hits.
	third := t.TempDir()
	stats3, err := ResumeToDirStore(cfg, third, gformat.TSV, st)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.PartsFromCache != 2 || stats3.Edges != 0 {
		t.Fatalf("third run stats = %+v, want all-cached", stats3)
	}
}

// TestPartKeyIndependentOfWorkers: two configs differing only in
// Workers share keys for the same range — parallelism does not shape
// part bytes.
func TestPartKeyIndependentOfWorkers(t *testing.T) {
	a := DefaultConfig(10)
	a.Workers = 2
	b := a
	b.Workers = 8
	r := partition.Range{Lo: 0, Hi: 100}
	if PartKey(a, gformat.ADJ6, r) != PartKey(b, gformat.ADJ6, r) {
		t.Fatal("Workers leaked into the part key")
	}
	c := a
	c.MasterSeed++
	if PartKey(a, gformat.ADJ6, r) == PartKey(c, gformat.ADJ6, r) {
		t.Fatal("MasterSeed did not change the part key")
	}
	if PartKey(a, gformat.ADJ6, r) == PartKey(a, gformat.TSV, r) {
		t.Fatal("format did not change the part key")
	}
}

// TestResumeRejectsCorruptedPart is the satellite regression test: a
// part file truncated under its final name (the torn-write scenario
// the resume path used to trust blindly) must be detected and regenerated,
// for each format's verification strategy.
func TestResumeRejectsCorruptedPart(t *testing.T) {
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6} {
		t.Run(format.String(), func(t *testing.T) {
			cfg := DefaultConfig(9)
			cfg.Workers = 2
			cfg.MasterSeed = 7

			full := t.TempDir()
			if _, err := ResumeToDirStore(cfg, full, format, nil); err != nil {
				t.Fatal(err)
			}
			ext := map[gformat.Format]string{gformat.TSV: "tsv", gformat.ADJ6: "adj6", gformat.CSR6: "csr6"}[format]
			parts := globParts(t, full, ext)
			if len(parts) != 2 {
				t.Fatalf("parts: %v", parts)
			}

			broken := t.TempDir()
			if _, err := ResumeToDirStore(cfg, broken, format, nil); err != nil {
				t.Fatal(err)
			}
			// Truncate part 1 mid-file: it still exists under its final
			// name, mimicking a torn write surviving a crash.
			victim := filepath.Join(broken, filepath.Base(parts[1]))
			b := readFile(t, victim)
			if err := os.WriteFile(victim, b[:len(b)-(len(b)/3)-1], 0o644); err != nil {
				t.Fatal(err)
			}

			stats, err := ResumeToDirStore(cfg, broken, format, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Edges == 0 {
				t.Fatal("resume accepted the corrupted part and regenerated nothing")
			}
			for _, p := range parts {
				name := filepath.Base(p)
				if !bytes.Equal(readFile(t, p), readFile(t, filepath.Join(broken, name))) {
					t.Fatalf("part %s differs after corruption recovery", name)
				}
			}
		})
	}
}

// TestCheckPartAcceptsComplete: CheckPart passes every intact part,
// including an empty TSV/ADJ6 file (all-zero-degree ranges write no
// bytes).
func TestCheckPartAcceptsComplete(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 2
	dir := t.TempDir()
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6} {
		sub := filepath.Join(dir, format.String())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeToDirStore(cfg, sub, format, nil); err != nil {
			t.Fatal(err)
		}
		ext := map[gformat.Format]string{gformat.TSV: "tsv", gformat.ADJ6: "adj6", gformat.CSR6: "csr6"}[format]
		for _, p := range globParts(t, sub, ext) {
			if err := CheckPart(p, format); err != nil {
				t.Errorf("CheckPart(%s, %v) = %v on an intact part", p, format, err)
			}
		}
	}
	empty := filepath.Join(dir, "empty.tsv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckPart(empty, gformat.TSV); err != nil {
		t.Errorf("CheckPart on empty TSV = %v, want nil", err)
	}
	if err := CheckPart(filepath.Join(dir, "empty.adj6"), gformat.ADJ6); err == nil {
		t.Error("CheckPart on a missing file = nil, want error")
	}
}
