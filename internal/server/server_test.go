package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// newTestServer returns a running service and its base URL.
func newTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// createJob POSTs a spec and returns the created job's ID.
func createJob(t *testing.T, base string, spec string) string {
	t.Helper()
	return createJobAs(t, base, "", spec)
}

// createJobAs POSTs a spec under the given tenant ("" = header omitted).
func createJobAs(t *testing.T, base, tenant, spec string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: %d %s", resp.StatusCode, body)
	}
	var out createResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func getStatus(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServerStreamBitIdentical is the core acceptance property: a
// streamed scale-14 TSV job is byte-identical to the concatenated part
// files GenerateToDir writes for the same configuration. The job is
// created under a named tenant and non-default class: scheduling
// identity must never change the generated bytes.
func TestServerStreamBitIdentical(t *testing.T) {
	cfg := core.DefaultConfig(14)
	cfg.MasterSeed = 42
	cfg.Workers = 3
	want := generateToDir(t, cfg, gformat.TSV)

	_, base := newTestServer(t, Options{
		Tenants: map[string]sched.Limits{"team-bits": {Weight: 3, Rate: 1e9}},
	})
	id := createJobAs(t, base, "team-bits",
		`{"scale":14,"master_seed":42,"workers":3,"format":"tsv","class":"interactive"}`)

	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/tab-separated-values") {
		t.Fatalf("content type %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes differ from %d batch bytes", len(got), len(want))
	}

	st := getStatus(t, base, id)
	if st.State != StateDone || st.Progress != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.BytesStreamed != int64(len(want)) {
		t.Fatalf("bytes_streamed %d, want %d", st.BytesStreamed, len(want))
	}
}

// TestServerConcurrentJobs streams two different jobs at once and
// checks both against their batch references.
func TestServerConcurrentJobs(t *testing.T) {
	cfgA := core.DefaultConfig(12)
	cfgB := core.DefaultConfig(12)
	cfgB.MasterSeed = 9
	wantA := generateToDir(t, cfgA, gformat.TSV)
	wantB := generateToDir(t, cfgB, gformat.ADJ6)

	_, base := newTestServer(t, Options{MaxActiveStreams: 2})
	idA := createJob(t, base, `{"scale":12,"format":"tsv"}`)
	idB := createJob(t, base, `{"scale":12,"master_seed":9,"format":"adj6"}`)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	stream := func(id string, want []byte) {
		defer wg.Done()
		resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			errs <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("job %s: status %d", id, resp.StatusCode)
			return
		}
		if !bytes.Equal(got, want) {
			errs <- fmt.Errorf("job %s: %d bytes differ from %d batch bytes", id, len(got), len(want))
		}
	}
	wg.Add(2)
	go stream(idA, wantA)
	go stream(idB, wantB)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerSlowReader drips the response body and checks the bytes
// still match the batch reference: backpressure must pace generation
// without corrupting or truncating the stream.
func TestServerSlowReader(t *testing.T) {
	cfg := core.DefaultConfig(12)
	want := generateToDir(t, cfg, gformat.TSV)

	_, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"scale":12,"format":"tsv","workers":2}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got bytes.Buffer
	chunk := make([]byte, 8192)
	for {
		n, err := resp.Body.Read(chunk)
		got.Write(chunk[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("slow read got %d bytes, want %d identical bytes", got.Len(), len(want))
	}
}

// TestServerClientDisconnect kills the client mid-stream and expects
// the job to end up canceled, with the cancellation visible in the
// expvar counters.
func TestServerClientDisconnect(t *testing.T) {
	srv, base := newTestServer(t, Options{})
	// Large enough that the stream cannot fit in kernel socket buffers.
	id := createJob(t, base, `{"scale":20,"format":"tsv","workers":2}`)

	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // hang up mid-stream

	// The handler joined srv.streams before its first byte; it leaves
	// after recording the job's end.
	srv.streams.Wait()
	if st := getStatus(t, base, id); st.State != StateCanceled || st.ScopesDone >= st.ScopesTotal {
		t.Fatalf("after a hang-up mid-stream: %+v, want canceled short of completion", st)
	}
	if n := srv.metrics.jobsCanceled.Value(); n != 1 {
		t.Fatalf("jobs_canceled %d", n)
	}
}

// TestServerCancelEndpoint aborts a running stream via DELETE.
func TestServerCancelEndpoint(t *testing.T) {
	srv, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"scale":20,"format":"tsv","workers":2}`)
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
	// The stream ends (possibly truncated) and the job records the
	// cancellation.
	io.Copy(io.Discard, resp.Body)
	srv.streams.Wait()
	if st := getStatus(t, base, id); st.State != StateCanceled {
		t.Fatalf("after DELETE mid-stream: %+v, want canceled", st)
	}
}

// TestServerDrain covers graceful shutdown: during a drain, new jobs
// and streams get 503 while an in-flight stream runs to completion.
func TestServerDrain(t *testing.T) {
	srv, base := newTestServer(t, Options{})
	idBefore := createJob(t, base, `{"scale":12,"format":"tsv"}`)
	idParked := createJob(t, base, `{"scale":12,"format":"tsv"}`)

	resp, err := http.Get(base + "/v1/jobs/" + idBefore + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}

	srv.BeginDrain()

	// New job: 503.
	presp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"scale":10}`))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: %d", presp.StatusCode)
	}
	// New stream of a pre-existing job: 503.
	sresp, err := http.Get(base + "/v1/jobs/" + idParked + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream during drain: %d", sresp.StatusCode)
	}
	// Health flips to draining.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", hresp.StatusCode)
	}

	// The in-flight stream still completes; Shutdown then returns.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := getStatus(t, base, idBefore); st.State != StateDone {
		t.Fatalf("in-flight job finished as %v", st.State)
	}
}

// TestServerShutdownCancelsOnDeadline: a stream outliving the drain
// deadline is cancelled so Shutdown can return.
func TestServerShutdownCancelsOnDeadline(t *testing.T) {
	srv, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"scale":20,"format":"tsv","workers":2}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	// Stop reading: the stream is parked on backpressure, so only the
	// deadline path can end it.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown err %v", err)
	}
	if st := getStatus(t, base, id); st.State != StateCanceled {
		t.Fatalf("state %v after forced shutdown", st.State)
	}
}

func TestServerStreamIsOneShot(t *testing.T) {
	_, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"scale":10,"format":"tsv"}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	again, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	again.Body.Close()
	if again.StatusCode != http.StatusConflict {
		t.Fatalf("second stream: %d, want 409", again.StatusCode)
	}
}

func TestServerStreamCapacity(t *testing.T) {
	// MaxQueued: NoQueue turns off queueing so the over-capacity request
	// is rejected immediately instead of parking for a slot.
	_, base := newTestServer(t, Options{
		MaxActiveStreams: 1,
		TenantDefaults:   sched.Limits{MaxQueued: sched.NoQueue},
	})
	idA := createJob(t, base, `{"scale":20,"format":"tsv","workers":2}`)
	idB := createJob(t, base, `{"scale":10,"format":"tsv"}`)

	resp, err := http.Get(base + "/v1/jobs/" + idA + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadFull(resp.Body, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	over, err := http.Get(base + "/v1/jobs/" + idB + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	over.Body.Close()
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity stream: %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on capacity rejection")
	}
	// The rejected job returns to pending and streams fine later.
	if st := getStatus(t, base, idB); st.State != StatePending {
		t.Fatalf("rejected job state %v", st.State)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, base := newTestServer(t, Options{MaxScale: 20})
	for _, body := range []string{
		``, `{`, `{"scale":0}`, `{"scale":25}`, `{"scale":10,"format":"csr6"}`,
		`{"scale":10,"bogus_field":1}`,
	} {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %q: status %d", body, resp.StatusCode)
		}
	}
	for _, url := range []string{"/v1/jobs/nope", "/v1/jobs/nope/stream"} {
		resp, err := http.Get(base + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
	}
}

func TestServerListAndMetrics(t *testing.T) {
	_, base := newTestServer(t, Options{EnablePprof: true})
	id := createJob(t, base, `{"scale":10,"format":"tsv"}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	lresp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id || list[0].State != StateDone {
		t.Fatalf("list %+v", list)
	}

	mresp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var vars struct {
		JobsCreated int64                      `json:"jobs_created"`
		JobsDone    int64                      `json:"jobs_done"`
		Edges       int64                      `json:"edges_streamed"`
		Bytes       int64                      `json:"bytes_streamed"`
		EdgesPerSec float64                    `json:"edges_per_sec"`
		Uptime      float64                    `json:"uptime_seconds"`
		Jobs        map[string]json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.JobsCreated != 1 || vars.JobsDone != 1 {
		t.Fatalf("vars %+v", vars)
	}
	if vars.Edges == 0 || vars.Bytes == 0 || vars.Uptime <= 0 {
		t.Fatalf("vars %+v", vars)
	}
	if _, ok := vars.Jobs[id]; !ok {
		t.Fatalf("per-job progress missing from %v", vars.Jobs)
	}

	presp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", presp.StatusCode)
	}
}

// fixedClock is a clock that moves only when the test moves it; the
// metrics' rate gauge reads it through the telemetry registry.
func fixedClock() (*time.Time, *telemetry.Registry) {
	now := time.Unix(1_700_000_000, 0)
	tel := telemetry.NewRegistry()
	tel.SetClock(func() time.Time { return now })
	return &now, tel
}

func TestMetricsEdgesPerSec(t *testing.T) {
	now, tel := fixedClock()
	m := newMetrics(newRegistry(4, 0), tel)
	m.addEdges(1000)
	*now = now.Add(5 * time.Millisecond)
	want := 1000 / (5 * time.Millisecond).Seconds()
	if r := m.edgesPerSec.Rate(); r != want {
		t.Fatalf("rate %v, want %v", r, want)
	}
	// Reading is side-effect-free with respect to other readers: the
	// second read sees the same baseline (not a zeroed delta), so with
	// the clock standing still back-to-back reads are equal.
	r1 := m.edgesPerSec.Rate()
	r2 := m.edgesPerSec.Rate()
	if r1 != want || r2 != r1 {
		t.Fatalf("back-to-back reads diverge: %v vs %v, want %v", r1, r2, want)
	}
	if got := m.edgesPerSec.Total(); got != 1000 {
		t.Fatalf("rate gauge total %d, want 1000", got)
	}
}

// TestMetricsConcurrentScrapes is the regression test for the old
// delta-since-last-read edges_per_sec: two monitoring systems scraping
// /debug/vars concurrently would split the delta between them, so each
// saw a fraction of the true rate (and a fast scraper starved a slow
// one to ~0). With the fixed-window gauge every concurrent reader of a
// clock that stands still must observe the one true rate.
func TestMetricsConcurrentScrapes(t *testing.T) {
	now, tel := fixedClock()
	m := newMetrics(newRegistry(4, 0), tel)
	m.addEdges(100_000)
	*now = now.Add(10 * time.Millisecond)
	want := 100_000 / (10 * time.Millisecond).Seconds()

	const readers = 8
	rates := make([]float64, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rates[i] = m.edgesPerSec.Rate()
		}(i)
	}
	wg.Wait()
	for i, r := range rates {
		if r != want {
			t.Fatalf("reader %d saw rate %v, want %v (rates %v)", i, r, want, rates)
		}
	}
}

// TestMetricsPrometheusEndpoint: /metrics serves the same registry in
// Prometheus text format, with /debug/vars keys visible as
// trilliong_-prefixed series.
func TestMetricsPrometheusEndpoint(t *testing.T) {
	_, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"scale":8,"format":"tsv"}`)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	presp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", presp.StatusCode)
	}
	if ct := presp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE trilliong_jobs_created counter\ntrilliong_jobs_created 1\n",
		"# TYPE trilliong_jobs_done counter\ntrilliong_jobs_done 1\n",
		"# TYPE trilliong_edges_per_sec gauge\n",
		"trilliong_edges_streamed ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "trilliong_jobs ") {
		t.Fatalf("per-job map leaked into Prometheus exposition:\n%s", text)
	}
}

// TestPprofOptIn: the profiling endpoints are absent unless
// Options.EnablePprof is set.
func TestPprofOptIn(t *testing.T) {
	_, base := newTestServer(t, Options{})
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof mounted by default: %d", resp.StatusCode)
	}
}
