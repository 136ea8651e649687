package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
)

// batchCommunity generates the layout to a directory and returns the
// part files concatenated in part order — the bytes a streamed job of
// the same spec must reproduce exactly.
func batchCommunity(t *testing.T, lay *community.Layout, format gformat.Format) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := lay.GenerateToDir(dir, format, community.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for id := 0; id < lay.NumBlocks(); id++ {
		b, err := os.ReadFile(core.PartPath(dir, format, id))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func streamJobByID(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestServerBipartiteStreamEqualsBatch: the first-class bipartite
// shape streams the byte-exact graph the batch community path writes
// for the equivalent two-community spec.
func TestServerBipartiteStreamEqualsBatch(t *testing.T) {
	lay, err := community.New(community.Bipartite(64, 96, 4*64, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := batchCommunity(t, lay, gformat.TSV)

	_, base := newTestServer(t, Options{})
	id := createJob(t, base,
		`{"shape":"bipartite","rows":64,"cols":96,"edge_factor":4,"master_seed":9,"format":"tsv"}`)
	got := streamJobByID(t, base, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes differ from %d batch bytes", len(got), len(want))
	}

	st := getStatus(t, base, id)
	if st.State != StateDone || st.Progress != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.ScopesTotal != lay.ScopeTotal() {
		t.Fatalf("scopes_total %d, want %d", st.ScopesTotal, lay.ScopeTotal())
	}
}

// TestServerCommunityStreamEqualsBatch: a full community job (mixed
// AVS/ERV blocks, embedded spec) is stream-equivalent to batch.
func TestServerCommunityStreamEqualsBatch(t *testing.T) {
	spec := `{"sizes":[8,5,8],"mixing":[[4,1,0],[1,2,1],[0,1,3]],"edges":120,"noise":0.1,"master_seed":11}`
	cfg, err := community.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := community.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := batchCommunity(t, lay, gformat.ADJ6)

	_, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"shape":"community","format":"adj6","community":`+spec+`}`)
	got := streamJobByID(t, base, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes differ from %d batch bytes", len(got), len(want))
	}
	if st := getStatus(t, base, id); st.State != StateDone {
		t.Fatalf("status %+v", st)
	}
}

// TestServerCommunityStreamCacheHit: a community job's whole-stream
// artifact lands in the store and a second identical job replays it
// bit-identically — and a job differing only in its mixing matrix does
// not collide with it.
func TestServerCommunityStreamCacheHit(t *testing.T) {
	_, base, _ := newCachedServer(t, Options{})
	spec := `{"shape":"community","format":"tsv","community":{"sizes":[8,5],"mixing":[[4,1],[1,2]],"edges":80,"master_seed":7}}`
	first, c1 := streamJob(t, base, spec)
	second, c2 := streamJob(t, base, spec)
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers %q then %q, want miss then hit", c1, c2)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache replay differs from the generated stream")
	}
	remixed := `{"shape":"community","format":"tsv","community":{"sizes":[8,5],"mixing":[[1,4],[2,1]],"edges":80,"master_seed":7}}`
	third, c3 := streamJob(t, base, remixed)
	if c3 != "miss" {
		t.Fatalf("different mixing matrix got cache header %q, want miss", c3)
	}
	if bytes.Equal(first, third) {
		t.Fatal("different mixing matrices streamed identical bytes")
	}
}

// TestServerCommunityStreamCancel: DELETE in the middle of a community
// stream — one block at the head, the next running ahead — cancels the
// job and leaves no stream behind.
func TestServerCommunityStreamCancel(t *testing.T) {
	srv, base := newTestServer(t, Options{})
	// Four ~10 MB blocks: far more than the socket buffers hold.
	id := createJob(t, base, `{"shape":"community","format":"tsv","workers":2,"community":`+
		`{"sizes":[100000,100000],"mixing":[[1,1],[1,1]],"edge_factor":16,"master_seed":3}}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, 1<<12)); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)

	// Shutdown waits for every stream handler — and a handler returns
	// only after core.StreamParts has collected its workers.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("stream still running after DELETE: %v", err)
	}
	st := getStatus(t, base, id)
	if st.State != StateCanceled || st.ScopesDone >= st.ScopesTotal {
		t.Fatalf("status after DELETE mid-stream: %+v", st)
	}
}

// TestServerCommunitySpecRejections: malformed community/bipartite
// specs fail at POST with a diagnostic, never at stream time.
func TestServerCommunitySpecRejections(t *testing.T) {
	_, base := newTestServer(t, Options{MaxScale: 20})
	cases := map[string]string{
		"unknown shape":            `{"shape":"torus","scale":10}`,
		"bipartite without rows":   `{"shape":"bipartite","cols":8}`,
		"bipartite zero rows":      `{"shape":"bipartite","rows":0,"cols":8}`,
		"bipartite with scale":     `{"shape":"bipartite","rows":8,"cols":8,"scale":10}`,
		"bipartite with community": `{"shape":"bipartite","rows":8,"cols":8,"community":{"sizes":[2,2],"mixing":[[0,1],[0,0]]}}`,
		"bipartite csr6":           `{"shape":"bipartite","rows":8,"cols":8,"format":"csr6"}`,
		"community without spec":   `{"shape":"community"}`,
		"community with rows":      `{"shape":"community","rows":8,"community":{"sizes":[2,2],"mixing":[[0,1],[0,0]]}}`,
		"community outer seed":     `{"shape":"community","master_seed":5,"community":{"sizes":[2,2],"mixing":[[0,1],[0,0]]}}`,
		"community zero mixing":    `{"shape":"community","community":{"sizes":[4,4],"mixing":[[0,0],[0,0]]}}`,
		"community typoed key":     `{"shape":"community","community":{"sizes":[4,4],"mixxing":[[0,1],[0,0]]}}`,
		"community over max scale": `{"shape":"community","community":{"sizes":[1048576,1048576],"mixing":[[0,1],[0,0]],"edges":16}}`,
		"classic with rows":        `{"scale":10,"rows":8}`,
	}
	for name, spec := range cases {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}
