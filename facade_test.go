package trilliong

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestResumeFacade: the public resume flow completes an interrupted
// directory.
func TestResumeFacade(t *testing.T) {
	cfg := New(9)
	cfg.Workers = 2
	dir := t.TempDir()
	if _, err := cfg.ResumeToDir(dir, ADJ6); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "part-00001.adj6")); err != nil {
		t.Fatal(err)
	}
	st, err := cfg.ResumeToDir(dir, ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges == 0 {
		t.Fatal("resume regenerated nothing")
	}
	parts, _ := filepath.Glob(filepath.Join(dir, "part-*.adj6"))
	if len(parts) != 2 {
		t.Fatalf("parts %v", parts)
	}
}

// TestEstimateFacade: the public estimator returns the paper-consistent
// Scale-38 TSV/ADJ6 ratio.
func TestEstimateFacade(t *testing.T) {
	cfg := New(38)
	tsv, err := cfg.EstimateSize(TSV)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := cfg.EstimateSize(ADJ6)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(tsv.Bytes) / float64(adj.Bytes)
	if ratio < 3 || ratio > 4.5 {
		t.Fatalf("TSV/ADJ6 ratio %v", ratio)
	}
}

// TestKernelFacades: generate a CSR graph and run every public kernel.
func TestKernelFacades(t *testing.T) {
	dir := t.TempDir()
	cfg := New(11)
	cfg.Workers = 1
	if _, err := cfg.GenerateToDir(dir, CSR6); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "part-00000.csr6"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ReadCSR6(f)
	if err != nil {
		t.Fatal(err)
	}
	root := MaxDegreeVertex(g)
	bfs, err := BFS(g, root)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Visited < g.NumVertices/2 {
		t.Fatalf("BFS visited %d of %d", bfs.Visited, g.NumVertices)
	}
	if frac := LargestComponentFraction(g); frac < 0.5 {
		t.Fatalf("giant component %v", frac)
	}
	labels, n := ConnectedComponents(g)
	if int64(len(labels)) != g.NumVertices || n < 1 {
		t.Fatalf("components %d over %d labels", n, len(labels))
	}
	rank, iters := PageRank(g, 0.85, 1e-8, 100)
	if iters == 0 || len(rank) != int(g.NumVertices) {
		t.Fatalf("pagerank iters %d len %d", iters, len(rank))
	}
	var sum float64
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("rank mass %v", sum)
	}
}

// TestAVSIThroughPublicConfig: the in-edge orientation is reachable via
// the facade and changes which axis the part files describe.
func TestAVSIThroughPublicConfig(t *testing.T) {
	cfg := New(9)
	cfg.Orientation = AVSI
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var scopes int64
	st, err := cfg.GenerateFunc(func(v int64, srcs []int64) error {
		scopes++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges == 0 || scopes == 0 {
		t.Fatal("AVS-I generated nothing")
	}
}

// TestProductionOptions.
func TestProductionOptions(t *testing.T) {
	o := Production()
	if !o.ReuseVector || !o.SparseRecursion || !o.SingleRandom || o.LinearSearch {
		t.Fatalf("production options %+v", o)
	}
}

// TestSocialNetworkFacade.
func TestSocialNetworkFacade(t *testing.T) {
	s := SocialNetworkSchema(4096, 1<<14)
	counts, err := s.Generate(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if counts["follows"] == 0 {
		t.Fatal("no follows edges")
	}
}

// TestShippedSchemasParse: the JSON schemas in schemas/ stay in sync
// with the parser.
func TestShippedSchemasParse(t *testing.T) {
	for _, name := range []string{"schemas/bibliography.json", "schemas/socialnetwork.json"} {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSchema(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.EdgeTypes) == 0 {
			t.Fatalf("%s: empty schema", name)
		}
	}
}

// TestStreamRangeFacade: the public streaming entry point reproduces
// GenerateToDir's bytes (single part, so the file IS the range).
func TestStreamRangeFacade(t *testing.T) {
	cfg := New(10)
	cfg.Workers = 1
	dir := t.TempDir()
	if _, err := cfg.GenerateToDir(dir, TSV); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "part-00000.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := cfg.StreamRange(context.Background(), &buf, TSV, 0, cfg.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("streamed %d bytes differ from the %d-byte part file", buf.Len(), len(want))
	}
	if st.Edges == 0 || st.BytesWritten != int64(buf.Len()) {
		t.Fatalf("stats %+v", st)
	}
}

// TestNewServerFacade: the embeddable service answers the job API.
func TestNewServerFacade(t *testing.T) {
	srv := NewServer(ServerOptions{MaxActiveStreams: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scale":10,"format":"tsv"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var created struct {
		StreamURL string `json:"stream_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Get(ts.URL + created.StreamURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	body, err := io.ReadAll(sresp.Body)
	if err != nil || len(body) == 0 {
		t.Fatalf("stream: %v, %d bytes", err, len(body))
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestUndirectedBFSFacade: the undirected traversal reaches more than
// the directed one on a generated graph.
func TestUndirectedBFSFacade(t *testing.T) {
	dir := t.TempDir()
	cfg := New(10)
	cfg.Workers = 1
	if _, err := cfg.GenerateToDir(dir, CSR6); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "part-00000.csr6"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := ReadCSR6(f)
	if err != nil {
		t.Fatal(err)
	}
	rev := Reverse(g)
	root := MaxDegreeVertex(g)
	directed, err := BFS(g, root)
	if err != nil {
		t.Fatal(err)
	}
	und, err := BFSUndirected(g, rev, root)
	if err != nil {
		t.Fatal(err)
	}
	if und.Visited < directed.Visited {
		t.Fatalf("undirected reached %d < directed %d", und.Visited, directed.Visited)
	}
}

// TestSwarmRunFacade: two masterless workers cooperating through one
// shared directory converge on exactly the batch file set.
func TestSwarmRunFacade(t *testing.T) {
	cfg := New(9)
	const parts = 4

	ref := t.TempDir()
	refCfg := cfg
	refCfg.Workers = parts // one part per worker: same layout as the swarm
	if _, err := refCfg.GenerateToDir(ref, ADJ6); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sums := make([]SwarmSummary, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = cfg.SwarmRun(dir, ADJ6, SwarmOptions{Parts: parts, WorkerID: uint64(i + 1)})
		}(i)
	}
	wg.Wait()
	claimed := 0
	for i := range sums {
		if errs[i] != nil {
			t.Fatalf("swarm worker %d: %v", i, errs[i])
		}
		claimed += sums[i].Claimed
	}
	if claimed != parts {
		t.Fatalf("swarm claimed %d parts in total, want exactly %d", claimed, parts)
	}
	for i := 0; i < parts; i++ {
		name := filepath.Join(dir, fmt.Sprintf("part-%05d.adj6", i))
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(ref, filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("swarm part %d differs from batch output", i)
		}
	}
}
