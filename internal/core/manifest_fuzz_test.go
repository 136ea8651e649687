package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gformat"
)

// FuzzReadRunManifest: whatever bytes lie in a directory's run
// manifest, ReadRunManifest does not panic, and a manifest it accepts
// describes a run that can be made: exactly one of a configuration that
// validates and a JSON source spec, a format that names itself and at
// least one part.
func FuzzReadRunManifest(f *testing.F) {
	dir := f.TempDir()
	cfg := DefaultConfig(6)
	cfg.NoiseParam = 0.1
	cfg.MasterSeed = 42
	cfg.Workers = 3
	if _, err := ResumeToDirStore(cfg, dir, gformat.TSV, nil); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	srcDir := f.TempDir()
	spec := json.RawMessage(`{"sizes":[8,5],"mixing":[[4,1],[1,2]],"edges":80,"master_seed":7}`)
	if err := EnsureSourceManifest(srcDir, "fp", spec, gformat.ADJ6, 4); err != nil {
		f.Fatal(err)
	}
	source, err := os.ReadFile(filepath.Join(srcDir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(source)
	f.Add([]byte(strings.Replace(string(source), `"parts": 4`, `"parts": -1`, 1)))
	f.Add([]byte(strings.Replace(string(source), `"source"`, `"config": {"Scale": 6}, "source"`, 1)))
	for _, edit := range [][2]string{
		{`"parts": 3`, `"parts": 0`},
		{`"format": "TSV"`, `"format": "CSV"`},
		{`"Scale": 6`, `"Scale": 48`},
		{`"EdgeFactor": 16`, `"EdgeFactor": -1`},
		{`"NoiseParam": 0.1`, `"NoiseParam": 1e9`},
		{`"ReuseVector": true`, `"ReuseVector": false`},
	} {
		if !strings.Contains(string(real), edit[0]) {
			f.Fatalf("manifest %s has no %s to edit", real, edit[0])
		}
		f.Add([]byte(strings.Replace(string(real), edit[0], edit[1], 1)))
	}
	for _, seed := range []string{
		``,
		`{}`,
		`{"config":{}}`,
		`{"fingerprint":"x","parts":2,"format":"adj6"}`,
		`{"fingerprint":"x","parts":2,"format":"adj6","source":{"sizes":[4]}}`,
		`[1,2,3]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadRunManifest(dir)
		if err != nil {
			return
		}
		switch {
		case (m.Config == nil) == (m.Source == nil):
			t.Fatalf("accepted a manifest of config %v and source %q: want exactly one\n%s", m.Config, m.Source, manifest)
		case m.Config != nil:
			if err := m.Config.Validate(); err != nil {
				t.Fatalf("accepted a manifest whose config does not validate: %v\n%s", err, manifest)
			}
		case !json.Valid(m.Source):
			t.Fatalf("accepted a source spec that is not JSON: %q", m.Source)
		}
		if m.Parts < 1 {
			t.Fatalf("accepted a manifest of %d parts:\n%s", m.Parts, manifest)
		}
		if f, err := gformat.ParseFormat(m.Format.String()); err != nil || f != m.Format {
			t.Fatalf("accepted format %v, which reads back as %v, %v", m.Format, f, err)
		}
	})
}
