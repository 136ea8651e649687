package trilliong

// The planner across runtimes: plans with more parts than vertices, and
// a directory half-written under another planner's cuts.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/store"
	"repro/internal/swarm"
)

// TestTinyGraphsManyParts: Scales 1–3 cut into 8 parts (the default at
// GOMAXPROCS 8), so most parts are empty. Every runtime writes all 8
// part files, CheckPart accepts each — the empty ones included — in
// every format, and the graph is the one-part run's: byte for byte for
// the streamable formats, edge for edge for CSR6.
func TestTinyGraphsManyParts(t *testing.T) {
	const parts = 8
	for scale := 1; scale <= 3; scale++ {
		for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6} {
			t.Run(fmt.Sprintf("scale%d/%v", scale, format), func(t *testing.T) {
				cfg := core.DefaultConfig(scale)
				one := cfg
				one.Workers = 1
				ref := t.TempDir()
				if _, err := core.ResumeToDir(one, ref, format); err != nil {
					t.Fatal(err)
				}
				cfg.Workers = parts
				ranges, err := core.Plan(cfg, parts)
				if err != nil {
					t.Fatal(err)
				}
				empty := 0
				for _, r := range ranges {
					if r.Lo == r.Hi {
						empty++
					}
				}
				if empty == 0 {
					t.Fatalf("plan %+v has no empty range", ranges)
				}

				st, err := store.Open(t.TempDir(), store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				runs := map[string]func(dir string) error{
					"Generate": func(dir string) error {
						_, err := core.Generate(cfg, core.FileSinks(dir, format, cfg.NumVertices()))
						return err
					},
					"ResumeToDir": func(dir string) error {
						_, err := core.ResumeToDir(cfg, dir, format)
						return err
					},
					"ResumeToDirStore": func(dir string) error {
						_, err := core.ResumeToDirStore(cfg, dir, format, st)
						return err
					},
					"swarm": func(dir string) error {
						var wg sync.WaitGroup
						errs := make([]error, 2)
						for i := range errs {
							wg.Add(1)
							go func() {
								defer wg.Done()
								_, errs[i] = swarm.Run(cfg, dir, format, swarm.Options{
									Parts: parts, WorkerID: uint64(i + 1), ScanInterval: 20 * time.Millisecond,
								})
							}()
						}
						wg.Wait()
						return errors.Join(errs...)
					},
				}
				for name, run := range runs {
					dir := t.TempDir()
					if err := run(dir); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var concat bytes.Buffer
					for i := 0; i < parts; i++ {
						path := core.PartPath(dir, format, i)
						if err := core.CheckPart(path, format); err != nil {
							t.Fatalf("%s: part %d (%+v): %v", name, i, ranges[i], err)
						}
						b, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						concat.Write(b)
					}
					if format == gformat.CSR6 {
						if got, want := readAllCSR6(t, dir), readAllCSR6(t, ref); !sameEdges(got, want) {
							t.Fatalf("%s: %d edges, the one-part run has %d", name, len(got), len(want))
						}
						continue
					}
					want, err := os.ReadFile(core.PartPath(ref, format, 0))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(concat.Bytes(), want) {
						t.Fatalf("%s: the 8 parts concatenate to %d bytes unlike the one-part run's %d", name, concat.Len(), len(want))
					}
				}
			})
		}
	}
}

func sameEdges(a, b edgeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for e := range a {
		if _, ok := b[e]; !ok {
			return false
		}
	}
	return true
}

// TestResumeRefusesDrawnPlanDirectory: testdata/drawn-plan-s8 holds,
// verbatim, the run manifest and two of the four TSV parts that
// `trilliong -scale 8 -workers 4 -format tsv -resume` wrote when parts
// were cut by drawing every scope size (the Figure 6 planner). Part
// files carry only their index, and the closed-form planner cuts
// [0, |V|) elsewhere, so completing the directory would mix two
// partitions. Every runtime must refuse it with the manifest mismatch,
// and leave it as it was.
func TestResumeRefusesDrawnPlanDirectory(t *testing.T) {
	const format = gformat.TSV
	cfg := core.DefaultConfig(8)
	cfg.Workers = 4
	src := filepath.Join("testdata", "drawn-plan-s8")
	files := map[string][]byte{}
	for name, as := range map[string]string{
		"trilliong-resume.json": ".trilliong-resume.json",
		"part-00000.tsv":        "part-00000.tsv",
		"part-00002.tsv":        "part-00002.tsv",
	} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		files[as] = b
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(dir string) error{
		"ResumeToDir": func(dir string) error {
			_, err := core.ResumeToDir(cfg, dir, format)
			return err
		},
		"ResumeToDirStore": func(dir string) error {
			_, err := core.ResumeToDirStore(cfg, dir, format, st)
			return err
		},
		"swarm": func(dir string) error {
			_, err := swarm.Run(cfg, dir, format, swarm.Options{Parts: 4, WorkerID: 1, ScanInterval: 20 * time.Millisecond})
			return err
		},
	} {
		dir := t.TempDir()
		for as, b := range files {
			if err := os.WriteFile(filepath.Join(dir, as), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		err := run(dir)
		if err == nil || !strings.Contains(err.Error(), "holds parts of a different run") {
			t.Fatalf("%s: err %v, want the manifest mismatch", name, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(files) {
			t.Fatalf("%s: %d entries in the directory, want the %d it held", name, len(entries), len(files))
		}
		for as, want := range files {
			if got, err := os.ReadFile(filepath.Join(dir, as)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s changed (%v)", name, as, err)
			}
		}
	}
}
