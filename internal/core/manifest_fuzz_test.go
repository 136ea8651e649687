package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gformat"
)

// FuzzReadRunManifest: whatever bytes lie in a directory's run
// manifest, ReadRunManifest does not panic, and a manifest it accepts
// describes a run that can be made: a configuration that validates, a
// format that names itself and at least one part.
func FuzzReadRunManifest(f *testing.F) {
	dir := f.TempDir()
	cfg := DefaultConfig(6)
	cfg.NoiseParam = 0.1
	cfg.MasterSeed = 42
	cfg.Workers = 3
	if _, err := ResumeToDir(cfg, dir, gformat.TSV); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
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
		if err := m.Config.Validate(); err != nil {
			t.Fatalf("accepted a manifest whose config does not validate: %v\n%s", err, manifest)
		}
		if m.Parts < 1 {
			t.Fatalf("accepted a manifest of %d parts:\n%s", m.Parts, manifest)
		}
		if f, err := gformat.ParseFormat(m.Format.String()); err != nil || f != m.Format {
			t.Fatalf("accepted format %v, which reads back as %v, %v", m.Format, f, err)
		}
	})
}
