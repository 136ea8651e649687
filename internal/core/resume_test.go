package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeCompletesInterruptedRun: delete two of four parts, resume,
// and get a file set bit-identical to an uninterrupted run.
func TestResumeCompletesInterruptedRun(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Workers = 4
	cfg.MasterSeed = 77

	full := t.TempDir()
	if _, err := ResumeToDir(cfg, full, gformat.ADJ6); err != nil {
		t.Fatal(err)
	}
	parts, err := filepath.Glob(filepath.Join(full, "part-*.adj6"))
	if err != nil || len(parts) != 4 {
		t.Fatalf("parts %v err %v", parts, err)
	}

	// Simulate the interrupted run in a second directory: generate all,
	// then delete parts 1 and 3 and leave a stale temp file behind.
	broken := t.TempDir()
	if _, err := ResumeToDir(cfg, broken, gformat.ADJ6); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(broken, "part-00001.adj6"))
	os.Remove(filepath.Join(broken, "part-00003.adj6"))
	if err := os.WriteFile(filepath.Join(broken, "part-00003.adj6.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := ResumeToDir(cfg, broken, gformat.ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges == 0 {
		t.Fatal("resume generated nothing")
	}
	if _, err := os.Stat(filepath.Join(broken, "part-00003.adj6.tmp")); err == nil {
		t.Fatal("stale temp file survived")
	}
	for i := 0; i < 4; i++ {
		name := filepath.Join("", filepath.Base(parts[i]))
		a := readFile(t, filepath.Join(full, name))
		b := readFile(t, filepath.Join(broken, name))
		if !bytes.Equal(a, b) {
			t.Fatalf("part %s differs after resume", name)
		}
	}
}

// TestResumeNoopWhenComplete: a second resume generates nothing.
func TestResumeNoopWhenComplete(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 2
	dir := t.TempDir()
	first, err := ResumeToDir(cfg, dir, gformat.ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	if first.Edges == 0 {
		t.Fatal("first run generated nothing")
	}
	second, err := ResumeToDir(cfg, dir, gformat.ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	if second.Edges != 0 {
		t.Fatalf("second run regenerated %d edges", second.Edges)
	}
}

// TestResumeCSR6: the resume path works for the offset-bearing CSR6
// format too — an interrupted run completed by resume is bit-identical
// to an uninterrupted one, header and offset table included.
func TestResumeCSR6(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 3
	cfg.MasterSeed = 41

	full := t.TempDir()
	if _, err := ResumeToDir(cfg, full, gformat.CSR6); err != nil {
		t.Fatal(err)
	}
	parts, err := filepath.Glob(filepath.Join(full, "part-*.csr6"))
	if err != nil || len(parts) != 3 {
		t.Fatalf("parts %v err %v", parts, err)
	}

	broken := t.TempDir()
	if _, err := ResumeToDir(cfg, broken, gformat.CSR6); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(broken, "part-00001.csr6"))

	st, err := ResumeToDir(cfg, broken, gformat.CSR6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges == 0 {
		t.Fatal("resume regenerated nothing")
	}
	for _, p := range parts {
		name := filepath.Base(p)
		if !bytes.Equal(readFile(t, p), readFile(t, filepath.Join(broken, name))) {
			t.Fatalf("CSR6 part %s differs after resume", name)
		}
	}
}

// TestResumeWorkersMismatchDetected: resuming with a different Workers
// count re-plans the partition, so the same part index would cover a
// different vertex range. The manifest must reject the resume instead
// of silently welding two partitions into one directory.
func TestResumeWorkersMismatchDetected(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 4
	dir := t.TempDir()
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, "part-00002.adj6"))

	cfg.Workers = 3
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err == nil {
		t.Fatal("mismatched resume (Workers 4 → 3) was not detected")
	}

	// Changing the format over existing parts is a mismatch too.
	cfg.Workers = 4
	if _, err := ResumeToDir(cfg, dir, gformat.TSV); err == nil {
		t.Fatal("mismatched resume (adj6 → tsv) was not detected")
	}

	// The original configuration still resumes cleanly.
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err != nil {
		t.Fatalf("matching resume failed: %v", err)
	}
}

// TestAtomicSinkRenameSemantics: the final name appears only after a
// clean Close; before that only the .tmp exists.
func TestAtomicSinkRenameSemantics(t *testing.T) {
	dir := t.TempDir()
	factory := AtomicPartSinks(dir, gformat.ADJ6, 1<<8, []int{5})
	w, err := factory(0, partition.Range{Lo: 0, Hi: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteScope(1, []int64{2, 3}); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "part-00005.adj6")
	if _, err := os.Stat(final); err == nil {
		t.Fatal("final file visible before Close")
	}
	if _, err := os.Stat(final + ".tmp"); err != nil {
		t.Fatal("temp file missing during write")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(final); err != nil {
		t.Fatal("final file missing after Close")
	}
	if _, err := os.Stat(final + ".tmp"); err == nil {
		t.Fatal("temp file not renamed away")
	}
}

// TestRunManifestRecordsParameters: a resumed run records its full
// generation parameters, and ReadRunManifest recovers them — what lets
// trilliong-validate check a directory without re-typed flags.
func TestRunManifestRecordsParameters(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.NoiseParam = 0.1
	cfg.MasterSeed = 42
	cfg.Workers = 3
	dir := t.TempDir()
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err != nil {
		t.Fatal(err)
	}
	m, err := ReadRunManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg
	want.Workers = 0 // normalized out: parts, not Workers, fix the plan
	if m.Config != want {
		t.Fatalf("recorded config %+v, want %+v", m.Config, want)
	}
	if m.Format != gformat.ADJ6 || m.Parts != 3 {
		t.Fatalf("recorded format %v / parts %d, want ADJ6 / 3", m.Format, m.Parts)
	}
	// Resuming again with the same configuration still matches.
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err != nil {
		t.Fatalf("re-resume with matching config: %v", err)
	}
	// A directory without a manifest reports a usable error.
	if _, err := ReadRunManifest(t.TempDir()); err == nil {
		t.Fatal("missing manifest did not error")
	}
}
