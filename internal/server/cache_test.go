package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// newCachedServer returns a running store-backed service, its base URL
// and the store (opened on the server's own registry, as
// trilliong-serve wires it).
func newCachedServer(t *testing.T, opts Options) (*Server, string, *store.Store) {
	t.Helper()
	s := New(opts)
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{Telemetry: s.Telemetry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetStore(st, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL, st
}

// streamJob creates and streams one job, returning the body and the
// X-Trilliong-Cache header.
func streamJob(t *testing.T, base, spec string) ([]byte, string) {
	t.Helper()
	id := createJob(t, base, spec)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Header.Get("X-Trilliong-Cache")
}

// TestServerStreamCacheHit: the first stream of a spec is a miss that
// populates the store; a second identical job is served from it,
// bit-identically, with the hit header and matching job accounting.
func TestServerStreamCacheHit(t *testing.T) {
	s, base, st := newCachedServer(t, Options{})
	spec := `{"scale":12,"master_seed":7,"workers":2,"format":"adj6"}`

	cold, cacheHdr := streamJob(t, base, spec)
	if cacheHdr != "miss" {
		t.Fatalf("first stream X-Trilliong-Cache = %q, want miss", cacheHdr)
	}
	if st.Stats().Ingests != 1 {
		t.Fatalf("store after first stream: %+v", st.Stats())
	}

	id2 := createJob(t, base, spec)
	resp, err := http.Get(base + "/v1/jobs/" + id2 + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	warm, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Trilliong-Cache"); got != "hit" {
		t.Fatalf("second stream X-Trilliong-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached stream (%d bytes) differs from generated (%d bytes)", len(warm), len(cold))
	}

	// Job accounting on the hit path matches a generated run: scopes =
	// full range, edges from the artifact metadata, state done.
	stat := getStatus(t, base, id2)
	if stat.State != StateDone || stat.Progress != 1 {
		t.Fatalf("cached job status %+v", stat)
	}
	if stat.BytesStreamed != int64(len(warm)) || stat.EdgesStreamed == 0 {
		t.Fatalf("cached job accounting %+v", stat)
	}
	if hits := s.Telemetry().CounterValue(store.MetricHits); hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}
}

// TestServerStreamCorruptEntryRegenerates: a corrupted cached artifact
// must fail verification, fall back to generation, and serve the exact
// bytes anyway.
func TestServerStreamCorruptEntryRegenerates(t *testing.T) {
	s, base, st := newCachedServer(t, Options{})
	spec := `{"scale":12,"master_seed":9,"workers":2,"format":"tsv"}`
	cold, _ := streamJob(t, base, spec)

	c, err := JobSpec{Scale: 12, MasterSeed: 9, Workers: 2, Format: "tsv"}.compile(specLimits{})
	if err != nil {
		t.Fatal(err)
	}
	key := core.PartKey(c.src.(core.Config), c.format, partition.Range{Lo: c.lo, Hi: c.hi})
	if err := st.CorruptForTest(key); err != nil {
		t.Fatal(err)
	}

	warm, cacheHdr := streamJob(t, base, spec)
	if cacheHdr != "miss" {
		t.Fatalf("corrupt-entry stream X-Trilliong-Cache = %q, want miss", cacheHdr)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("regenerated stream differs from original")
	}
	if got := s.Telemetry().CounterValue(store.MetricVerifyFailures); got != 1 {
		t.Fatalf("verify_failures = %d, want 1", got)
	}
	// The regeneration re-ingested the artifact: next stream hits.
	_, cacheHdr = streamJob(t, base, spec)
	if cacheHdr != "hit" {
		t.Fatalf("post-recovery stream X-Trilliong-Cache = %q, want hit", cacheHdr)
	}
}

// TestServerDownload: /download serves the cached artifact whole (with
// Content-Length), 404s when the artifact is not cached, and is
// repeatable — unlike the one-shot /stream.
func TestServerDownload(t *testing.T) {
	_, base, _ := newCachedServer(t, Options{})
	spec := `{"scale":12,"master_seed":3,"workers":2,"format":"adj6"}`

	id := createJob(t, base, spec)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/download")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Trilliong-Cache") != "miss" {
		t.Fatalf("pre-stream download: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Trilliong-Cache"))
	}

	streamed, _ := streamJob(t, base, spec)
	for i := 0; i < 2; i++ { // downloads are repeatable
		resp, err := http.Get(base + "/v1/jobs/" + id + "/download")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Trilliong-Cache") != "hit" {
			t.Fatalf("download %d: status %d, cache %q", i, resp.StatusCode, resp.Header.Get("X-Trilliong-Cache"))
		}
		if resp.ContentLength != int64(len(streamed)) || !bytes.Equal(body, streamed) {
			t.Fatalf("download %d: %d bytes (Content-Length %d), want %d", i, len(body), resp.ContentLength, len(streamed))
		}
	}
}

// TestServerDownloadWithoutStore: a storeless server 404s cleanly.
func TestServerDownloadWithoutStore(t *testing.T) {
	_, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"scale":10}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/download")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("download without store: status %d, want 404", resp.StatusCode)
	}
}

// TestServerCacheSharedWithBatch: a server job's artifact key equals
// the batch part key for the same configuration and range, so a store
// populated by ResumeToDirStore serves server streams (and vice versa).
func TestServerCacheSharedWithBatch(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(root, store.Options{Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(12)
	cfg.MasterSeed = 5
	cfg.Workers = 1 // one part covering the whole range = one stream artifact
	dir := t.TempDir()
	if _, err := core.ResumeToDirStore(cfg, dir, gformat.ADJ6, st); err != nil {
		t.Fatal(err)
	}

	s := New(Options{MaxWorkersPerJob: 1})
	if err := s.SetStore(st, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body, cacheHdr := streamJob(t, ts.URL, `{"scale":12,"master_seed":5,"workers":1,"format":"adj6"}`)
	if cacheHdr != "hit" {
		t.Fatalf("batch-populated store: stream X-Trilliong-Cache = %q, want hit", cacheHdr)
	}
	want, err := os.ReadFile(filepath.Join(dir, "part-00000.adj6"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("server stream from batch-populated store differs from the batch part file")
	}
}
