package trilliong

// Cross-module integration tests: the same configuration must produce
// the identical edge set through every output format, worker count and
// API entry point.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/swarm"
)

type edgeSet map[Edge]struct{}

func (s edgeSet) add(e Edge) { s[e] = struct{}{} }

func readAllTSV(t *testing.T, dir string) edgeSet {
	t.Helper()
	out := make(edgeSet)
	files, err := filepath.Glob(filepath.Join(dir, "part-*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r := NewTSVReader(f)
		for {
			e, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out.add(e)
		}
		f.Close()
	}
	return out
}

func readAllADJ6(t *testing.T, dir string) edgeSet {
	t.Helper()
	out := make(edgeSet)
	files, err := filepath.Glob(filepath.Join(dir, "part-*.adj6"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		r := NewADJ6Reader(f)
		for {
			src, dsts, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dsts {
				out.add(Edge{Src: src, Dst: d})
			}
		}
		f.Close()
	}
	return out
}

func readAllCSR6(t *testing.T, dir string) edgeSet {
	t.Helper()
	out := make(edgeSet)
	files, err := filepath.Glob(filepath.Join(dir, "part-*.csr6"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ReadCSR6(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < g.NumVertices; v++ {
			for _, d := range g.Adj(v) {
				out.add(Edge{Src: v, Dst: d})
			}
		}
	}
	return out
}

// TestAllFormatsSerializeTheSameGraph: one configuration, three
// formats, three worker counts — identical edge sets throughout.
func TestAllFormatsSerializeTheSameGraph(t *testing.T) {
	cfg := New(10)
	cfg.MasterSeed = 77

	var reference edgeSet
	check := func(name string, got edgeSet) {
		t.Helper()
		if reference == nil {
			reference = got
			if len(reference) == 0 {
				t.Fatal("reference edge set empty")
			}
			return
		}
		if len(got) != len(reference) {
			t.Fatalf("%s: %d edges, reference has %d", name, len(got), len(reference))
		}
		for e := range reference {
			if _, ok := got[e]; !ok {
				t.Fatalf("%s: missing edge %v", name, e)
			}
		}
	}

	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		for _, fc := range []struct {
			format Format
			read   func(*testing.T, string) edgeSet
		}{
			{TSV, readAllTSV},
			{ADJ6, readAllADJ6},
			{CSR6, readAllCSR6},
		} {
			dir := t.TempDir()
			if _, err := cfg.GenerateToDir(dir, fc.format); err != nil {
				t.Fatalf("workers=%d format=%v: %v", workers, fc.format, err)
			}
			check(fc.format.String(), fc.read(t, dir))
		}
	}

	// The streaming API yields the same set too.
	streamed := make(edgeSet)
	if _, err := cfg.GenerateFunc(func(src int64, dsts []int64) error {
		for _, d := range dsts {
			streamed.add(Edge{Src: src, Dst: d})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	check("GenerateFunc", streamed)
}

// TestCSRPartsAreGloballyConsistent: per-part CSR images never overlap
// in sources and cover every generated scope in order.
func TestCSRPartsAreGloballyConsistent(t *testing.T) {
	cfg := New(9)
	cfg.Workers = 4
	dir := t.TempDir()
	if _, err := cfg.GenerateToDir(dir, CSR6); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "part-*.csr6"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	owned := make(map[int64]int)
	for pi, name := range files {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ReadCSR6(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumVertices != cfg.NumVertices() {
			t.Fatalf("part %d declares %d vertices, want %d", pi, g.NumVertices, cfg.NumVertices())
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if g.Degree(v) > 0 {
				if prev, dup := owned[v]; dup {
					t.Fatalf("vertex %d appears in parts %d and %d", v, prev, pi)
				}
				owned[v] = pi
			}
		}
	}
	if len(owned) == 0 {
		t.Fatal("no vertices owned by any part")
	}
}

// TestNoiseChangesGraphButStaysDeterministic: different noise values
// give different graphs; the same value replays identically.
func TestNoiseChangesGraphButStaysDeterministic(t *testing.T) {
	collect := func(noise float64) edgeSet {
		cfg := New(9)
		cfg.NoiseParam = noise
		out := make(edgeSet)
		if _, err := cfg.GenerateFunc(func(src int64, dsts []int64) error {
			for _, d := range dsts {
				out.add(Edge{Src: src, Dst: d})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a1, a2 := collect(0.1), collect(0.1)
	if len(a1) != len(a2) {
		t.Fatal("same noise not deterministic")
	}
	same := true
	for e := range a1 {
		if _, ok := a2[e]; !ok {
			same = false
		}
	}
	if !same {
		t.Fatal("same noise produced different edges")
	}
	b := collect(0)
	diff := 0
	for e := range a1 {
		if _, ok := b[e]; !ok {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("noise had no effect on the graph")
	}
}

// partHashes maps every part file name under dirs to the SHA-256 of its
// bytes. A name present in two directories must carry identical bytes.
func partHashes(t *testing.T, dirs ...string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "part-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			h := hex.EncodeToString(sum[:])
			if prev, ok := out[filepath.Base(name)]; ok && prev != h {
				t.Fatalf("%s differs between directories", filepath.Base(name))
			}
			out[filepath.Base(name)] = h
		}
	}
	return out
}

// teeWriter encodes every scope in several formats at once, so one
// generation yields the part in all of them.
type teeWriter []gformat.Writer

func (ws teeWriter) WriteScope(src int64, dsts []int64) error {
	for _, w := range ws {
		if err := w.WriteScope(src, dsts); err != nil {
			return err
		}
	}
	return nil
}

func (ws teeWriter) Close() error {
	for _, w := range ws {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

func (ws teeWriter) BytesWritten() (n int64) {
	for _, w := range ws {
		n += w.BytesWritten()
	}
	return n
}

func (ws teeWriter) EdgesWritten() int64 { return ws[0].EdgesWritten() }

// TestCooperativePartsMatchPartsAlone is the chunk scheduler's half of
// the conformance table: however many threads share however many parts
// (core.GenerateParts runs a thread per part, up to GOMAXPROCS, each
// taking chunks of any part), every part file is byte for byte the file that part produces
// generated alone, on one thread that draws nothing ahead. The configs
// are dense, so the near-full hub rows that stall a part's head — and
// send the other threads running ahead and into the next parts — sit
// in the first part of every plan.
func TestCooperativePartsMatchPartsAlone(t *testing.T) {
	dense := core.DefaultConfig(9)
	dense.EdgeFactor = 128
	nskg := dense
	nskg.NoiseParam = 0.05
	avsi := dense
	avsi.Orientation = core.AVSI
	lay, err := community.New(community.Config{
		// 512 is a power of two (AVS intra block); the rest run ERV.
		Sizes:      []int64{512, 700, 300},
		Mixing:     [][]float64{{6, 1, 1}, {1, 6, 1}, {1, 1, 6}},
		EdgeFactor: 128,
		Noise:      0.05,
		MasterSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6}
	for _, tc := range []struct {
		name    string
		src     core.PartSource
		formats []gformat.Format
	}{
		{"classic", dense, all},
		{"nskg", nskg, all},
		{"avs-i", avsi, all},
		// A vertex heads one scope per block it sources: no CSR6.
		{"community-k3", lay, all[:2]},
	} {
		for _, parts := range []int{1, 2, 3, 8} {
			var ranges []partition.Range
			var ids []int
			if cfg, ok := tc.src.(core.Config); ok {
				ranges, ids, err = cfg.Plan(parts)
			} else if ranges, ids, err = tc.src.Plan(0); err == nil {
				ranges, ids = ranges[:parts], ids[:parts] // the first blocks, a diagonal one first
			}
			if err != nil {
				t.Fatal(err)
			}
			// Every format of a part comes from the one draw of it.
			sinks := func(dir string, ids []int) core.SinkFactory {
				return func(i int, r partition.Range) (gformat.Writer, error) {
					var tee teeWriter
					for _, format := range tc.formats {
						w, err := core.FileSinks(dir, format, tc.src.NumVertices())(ids[i], r)
						if err != nil {
							return nil, err
						}
						tee = append(tee, w)
					}
					return tee, nil
				}
			}
			together, alone := t.TempDir(), t.TempDir()
			st, err := core.GenerateParts(tc.src, ranges, ids, sinks(together, ids), nil)
			if err != nil {
				t.Fatal(err)
			}
			var edges int64
			for i := range ranges {
				one, err := core.GenerateParts(tc.src, ranges[i:i+1], ids[i:i+1], sinks(alone, ids[i:i+1]), nil)
				if err != nil {
					t.Fatal(err)
				}
				edges += one.Edges
			}
			want := partHashes(t, alone)
			got := partHashes(t, together)
			if len(got) != parts*len(tc.formats) || st.Edges != edges {
				t.Fatalf("%s %d parts: %d files holding %d edges, want %d edges", tc.name, parts, len(got), st.Edges, edges)
			}
			for name, h := range got {
				if want[name] != h {
					t.Errorf("%s %d parts: %s sha256 %s together, %s alone", tc.name, parts, name, h, want[name])
				}
			}
		}
	}
}

// TestPartExecutorConformance proves the one part executor
// (core.ResumeParts / core.RunParts / core.StreamParts) once for every
// PartSource — classic, community and a gMark schema compiled to
// community blocks — through every runtime that calls it: whichever way
// a job's parts come to exist — generated cold, found on disk, fetched
// from a warm store, leased from a master, claimed by a swarm, streamed
// in order into one writer — the per-part bytes are identical and the
// cache/skip accounting is what the path implies. (Dist ships community
// specs, not schemas, so the gMark row has no dist leg.)
func TestPartExecutorConformance(t *testing.T) {
	const format = gformat.ADJ6
	classic := core.DefaultConfig(11)
	classic.NoiseParam = 0.05
	classic.MasterSeed = 7
	classic.Workers = 4
	ccfg := community.Config{
		// 256 is a power of two (AVS intra block); the rest run ERV.
		Sizes:      []int64{300, 256, 200},
		Mixing:     [][]float64{{6, 1, 1}, {1, 6, 0}, {1, 1, 6}},
		EdgeFactor: 8,
		Noise:      0.05,
		MasterSeed: 7,
	}
	lay, err := community.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	// created and likes are both person→post: one rectangle, two blocks
	// that only their seeds and part keys tell apart.
	schema, err := SocialNetworkSchema(600, 4800).Layout(7)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		src    core.PartSource
		parts  int
		resume func(dir string, st *store.Store) (core.Stats, error)
		master *dist.MasterConfig // nil: no dist leg
	}{
		{"classic", classic, classic.Workers,
			func(dir string, st *store.Store) (core.Stats, error) {
				return core.ResumeToDirStore(classic, dir, format, st)
			},
			&dist.MasterConfig{Config: classic}},
		{"community", lay, lay.NumBlocks(),
			func(dir string, st *store.Store) (core.Stats, error) {
				return lay.GenerateToDir(dir, format, community.RunOptions{Store: st})
			},
			&dist.MasterConfig{Community: &ccfg}},
		{"gmark", schema, schema.NumBlocks(),
			func(dir string, st *store.Store) (core.Stats, error) {
				return schema.GenerateToDir(dir, format, community.RunOptions{Store: st})
			},
			nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]string
			same := func(row string, dirs ...string) {
				t.Helper()
				got := partHashes(t, dirs...)
				if len(got) != tc.parts {
					t.Fatalf("%s: %d part files, want %d", row, len(got), tc.parts)
				}
				for name, h := range got {
					if want[name] != h {
						t.Errorf("%s: %s sha256 %s, want %s", row, name, h, want[name])
					}
				}
			}

			cold := t.TempDir()
			cst, err := tc.resume(cold, st)
			if err != nil {
				t.Fatal(err)
			}
			if cst.Edges == 0 || cst.PartsFromCache != 0 || len(cst.Ranges) != tc.parts {
				t.Fatalf("cold: edges %d, from cache %d, %d ranges", cst.Edges, cst.PartsFromCache, len(cst.Ranges))
			}
			want = partHashes(t, cold)
			same("cold", cold)
			// Parts over the same rows are told apart by key and by bytes.
			for i, ri := range cst.Ranges {
				for j, rj := range cst.Ranges[:i] {
					if ri.Lo != rj.Lo || ri.Hi != rj.Hi {
						continue
					}
					if tc.src.PartKey(format, i, ri) == tc.src.PartKey(format, j, rj) {
						t.Errorf("parts %d and %d over rows [%d, %d) share a store key", j, i, ri.Lo, ri.Hi)
					}
					if a, b := filepath.Base(core.PartPath(cold, format, i)), filepath.Base(core.PartPath(cold, format, j)); want[a] == want[b] {
						t.Errorf("parts %d and %d over rows [%d, %d) hold the same bytes", j, i, ri.Lo, ri.Hi)
					}
				}
			}

			// Streamed: the same parts in order through one writer are the
			// part files concatenated, at any worker count.
			ranges, ids, err := tc.src.Plan(tc.parts)
			if err != nil {
				t.Fatal(err)
			}
			stream := func(row string, ranges []partition.Range, ids, files []int) {
				t.Helper()
				batch := sha256.New()
				for _, id := range files {
					b, err := os.ReadFile(core.PartPath(cold, format, id))
					if err != nil {
						t.Fatal(err)
					}
					batch.Write(b)
				}
				for _, workers := range []int{1, 3} {
					i := 0
					next := func() (int, partition.Range, bool) {
						if i == len(ids) {
							return 0, partition.Range{}, false
						}
						i++
						return ids[i-1], ranges[i-1], true
					}
					streamed := sha256.New()
					if _, err := core.StreamParts(context.Background(), tc.src, format, next, workers, streamed, nil); err != nil {
						t.Fatalf("%s workers %d: %v", row, workers, err)
					}
					if got, want := hex.EncodeToString(streamed.Sum(nil)), hex.EncodeToString(batch.Sum(nil)); got != want {
						t.Errorf("%s workers %d: sha256 %s, want the part files' %s", row, workers, got, want)
					}
				}
			}
			stream("stream", ranges, ids, ids)
			if _, ok := tc.src.(core.Config); ok {
				// A classic sub-range is any cut of it: parts 1 and 2, split
				// off the plan's boundary.
				cut := ranges[1].Lo + 5
				stream("stream sub-range", []partition.Range{{Lo: ranges[1].Lo, Hi: cut}, {Lo: cut, Hi: ranges[2].Hi}},
					[]int{0, 1}, []int{1, 2})
			}

			// Same directory again: every part is verified present and
			// skipped — nothing generated, nothing fetched.
			again, err := tc.resume(cold, st)
			if err != nil {
				t.Fatal(err)
			}
			if again.Edges != 0 || again.PartsFromCache != 0 {
				t.Fatalf("again: edges %d, from cache %d, want 0 and 0", again.Edges, again.PartsFromCache)
			}
			same("again", cold)

			// Fresh directory, warm store: every part is a cache hit.
			warm := t.TempDir()
			wst, err := tc.resume(warm, st)
			if err != nil {
				t.Fatal(err)
			}
			if wst.Edges != 0 || wst.PartsFromCache != tc.parts {
				t.Fatalf("warm: edges %d, from cache %d, want 0 and %d", wst.Edges, wst.PartsFromCache, tc.parts)
			}
			same("warm", warm)

			// Two TCP workers leasing from a master, no store.
			var wg sync.WaitGroup
			if tc.master != nil {
				mc := *tc.master
				mc.Addr, mc.Workers, mc.Parts, mc.Format = "127.0.0.1:0", 2, tc.parts, format
				mc.AcceptTimeout = 10 * time.Second
				m, err := dist.NewMaster(mc)
				if err != nil {
					t.Fatal(err)
				}
				distDirs := []string{t.TempDir(), t.TempDir()}
				werrs := make([]error, len(distDirs))
				for i, dir := range distDirs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						werrs[i] = dist.RunWorker(dist.WorkerConfig{MasterAddr: m.Addr(), Threads: 2, OutDir: dir})
					}()
				}
				dsum, err := m.Run()
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				for i, werr := range werrs {
					if werr != nil {
						t.Fatalf("dist worker %d: %v", i, werr)
					}
				}
				if dsum.Parts != tc.parts || dsum.Edges != cst.Edges || dsum.PartsFromCache != 0 || dsum.SkippedParts != 0 {
					t.Fatalf("dist: %+v, want %d parts, %d edges, none cached or skipped", dsum, tc.parts, cst.Edges)
				}
				same("dist", distDirs...)
			}

			// Two masterless swarm workers sharing one directory, no store.
			shared := t.TempDir()
			sums := make([]swarm.Summary, 2)
			serrs := make([]error, 2)
			for i := range sums {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sums[i], serrs[i] = swarm.Run(tc.src, shared, format, swarm.Options{
						Parts: tc.parts, WorkerID: uint64(i + 1), ScanInterval: 20 * time.Millisecond,
					})
				}()
			}
			wg.Wait()
			claimed := 0
			for i, serr := range serrs {
				if serr != nil {
					t.Fatalf("swarm worker %d: %v", i, serr)
				}
				claimed += sums[i].Claimed
				if sums[i].FromCache != 0 {
					t.Fatalf("swarm worker %d: %d parts from a store it does not have", i, sums[i].FromCache)
				}
			}
			if claimed != tc.parts {
				t.Fatalf("swarm: %d parts claimed across workers, want %d", claimed, tc.parts)
			}
			same("swarm", shared)
		})
	}
}
