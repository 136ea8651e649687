package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/store"
	"repro/internal/validate"
)

func generate(t *testing.T, cfg core.Config, dir string) {
	t.Helper()
	if _, err := core.ResumeToDirStore(cfg, dir, gformat.ADJ6, nil); err != nil {
		t.Fatal(err)
	}
}

func nskgConfig(scale int) core.Config {
	cfg := core.DefaultConfig(scale)
	cfg.NoiseParam = 0.1
	cfg.MasterSeed = 42
	cfg.Workers = 2
	return cfg
}

// The manifest path: every directory run records its parameters, so the CLI
// needs nothing but the directory.
func TestValidateDirFromManifest(t *testing.T) {
	dir := t.TempDir()
	generate(t, nskgConfig(13), dir)
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s\nstdout %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "verdict=pass") {
		t.Errorf("summary missing pass verdict:\n%s", out.String())
	}
}

// JSON mode emits a parseable validate.Report with the full parameter
// record and per-check results.
func TestValidateDirJSON(t *testing.T) {
	dir := t.TempDir()
	cfg := nskgConfig(13)
	generate(t, cfg, dir)
	var out, errb bytes.Buffer
	if code := run([]string{"-json", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	var rep validate.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a report: %v\n%s", err, out.String())
	}
	if rep.Schema != validate.ReportSchema {
		t.Errorf("schema %q, want %q", rep.Schema, validate.ReportSchema)
	}
	if rep.Params.Model != "nskg" || rep.Params.Scale != 13 || rep.Params.MasterSeed != 42 {
		t.Errorf("params not recorded from manifest: %+v", rep.Params)
	}
	if rep.Verdict != validate.StatusPass {
		t.Errorf("verdict %s, want pass", rep.Verdict)
	}
	if rep.OscillationDetected {
		t.Error("NSKG run flagged as oscillating")
	}
	if len(rep.Checks) == 0 {
		t.Error("report has no checks")
	}
}

// Flags override the manifest: validating the graph against a
// different master seed's expectations must fail and exit 1.
func TestValidateDirFlagOverrideFails(t *testing.T) {
	dir := t.TempDir()
	generate(t, nskgConfig(13), dir)
	var out, errb bytes.Buffer
	if code := run([]string{"-master", "7", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (fail verdict)\nstderr %s\nstdout %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "verdict=fail") {
		t.Errorf("summary missing fail verdict:\n%s", out.String())
	}
}

// Without a manifest the parameters must come from flags.
func TestValidateDirWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := nskgConfig(13)
	if _, err := core.Generate(cfg, core.FileSinks(dir, gformat.ADJ6, cfg.NumVertices())); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 2 {
		t.Fatalf("manifest-less dir without flags: exit %d, want 2", code)
	}
	out.Reset()
	errb.Reset()
	args := []string{"-scale", "13", "-noise", "0.1", "-master", "42", dir}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
}

// Store mode validates cached parts without an output directory.
func TestValidateStoreEntries(t *testing.T) {
	cfg := nskgConfig(13)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	if _, err := core.ResumeToDirStore(cfg, outDir, gformat.ADJ6, st); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	args := []string{
		"-store", st.Dir(), "-parts", strconv.Itoa(cfg.Workers),
		"-scale", "13", "-noise", "0.1", "-master", "42",
	}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s\nstdout %s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "verdict=pass") {
		t.Errorf("summary missing pass verdict:\n%s", out.String())
	}
	// A configuration the store has never seen must be rejected, not
	// silently validated against nothing.
	if code := run([]string{"-store", st.Dir(), "-parts", "2", "-scale", "9"}, &out, &errb); code != 2 {
		t.Errorf("uncached config: exit %d, want 2", code)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no target: exit %d, want 2", code)
	}
	if code := run([]string{"-store", "x", "y"}, &out, &errb); code != 2 {
		t.Errorf("both targets: exit %d, want 2", code)
	}
}
