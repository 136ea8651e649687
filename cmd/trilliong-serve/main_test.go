package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	trilliong "repro"
)

func TestFlagDefaultsAndValidation(t *testing.T) {
	fs := flag.NewFlagSet("trilliong-serve", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8080" || o.maxStreams != 4 || o.maxScale != 34 {
		t.Fatalf("defaults %+v", o)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-addr", ""},
		{"-max-streams", "0"},
		{"-max-jobs", "-1"},
		{"-max-scale", "0"},
		{"-drain-timeout", "0s"},
		{"-tenant", "bad name!"},
		{"-tenant", "a,weight=0"},
		{"-tenant", "a,bogus=1"},
		{"-tenant", "a,weight=2", "-tenant", "a,weight=3"},
	} {
		fs := flag.NewFlagSet("trilliong-serve", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := o.validate(); err == nil {
			t.Fatalf("flags %v accepted", args)
		}
	}
}

// TestTenantFlags: repeatable -tenant specs and -tenant-defaults
// resolve to the scheduler's limit map.
func TestTenantFlags(t *testing.T) {
	fs := flag.NewFlagSet("trilliong-serve", flag.ContinueOnError)
	o := defineFlags(fs)
	err := fs.Parse([]string{
		"-tenant", "alice,weight=3,rate=1e6,max-active=2",
		"-tenant", "bob,max-queued=none",
		"-tenant-defaults", "max-queued=16,ttl=10s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	tenants, err := o.tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("tenants %+v", tenants)
	}
	alice := tenants["alice"]
	if alice.Weight != 3 || alice.Rate != 1e6 || alice.MaxInFlight != 2 {
		t.Fatalf("alice %+v", alice)
	}
	if tenants["bob"].MaxQueued >= 0 {
		t.Fatalf("bob %+v, want max-queued none", tenants["bob"])
	}
	defaults, err := trilliong.ParseTenantLimits(o.tenantDefaults)
	if err != nil {
		t.Fatal(err)
	}
	if defaults.MaxQueued != 16 || defaults.QueueTTL != 10*time.Second {
		t.Fatalf("defaults %+v", defaults)
	}
	if _, err := o.newService(); err != nil {
		t.Fatal(err)
	}
}

// TestServeScale20EndToEnd drives the built service exactly as the
// binary wires it: a scale-20 job is streamed over HTTP and must hash
// identically to the part files GenerateToDir writes for the same
// configuration, while a second concurrent job streams correctly and
// a killed client cancels its job (visible in status and expvar).
// TestSlowHeaderClientDisconnected: the binary's http.Server carries the
// slow-client bounds (and no WriteTimeout — streams are long-lived), and
// a client that never finishes its request headers is hung up on rather
// than holding its connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("server timeouts: header %v idle %v write %v, want positive, positive, none",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the drill need not wait out the production bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Headers without the terminating blank line: the request never starts.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: slow\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept a header-stalling client connected: %v", err)
	}
}

func TestServeScale20EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-20 end-to-end in -short mode")
	}

	// Batch reference: GenerateToDir, parts concatenated in order.
	cfg := trilliong.New(20)
	cfg.MasterSeed = 3
	cfg.Workers = 4
	dir := t.TempDir()
	if _, err := cfg.GenerateToDir(dir, trilliong.ADJ6); err != nil {
		t.Fatal(err)
	}
	wantHash := sha256.New()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var wantBytes int64
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(wantHash, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes += n
	}

	// The service, built through the same plumbing main uses.
	fs := flag.NewFlagSet("trilliong-serve", flag.ContinueOnError)
	o := defineFlags(fs)
	if err := fs.Parse([]string{"-max-streams", "3"}); err != nil {
		t.Fatal(err)
	}
	svc, err := o.newService()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(spec string) string {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST: %d %s", resp.StatusCode, body)
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.ID
	}
	state := func(id string) string {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.State
	}

	mainID := post(`{"scale":20,"master_seed":3,"format":"adj6"}`)
	sideID := post(`{"scale":12,"master_seed":3,"format":"tsv"}`)
	doomedID := post(`{"scale":20,"format":"tsv","workers":2}`)

	// Concurrent second job, verified against the library.
	sideDone := make(chan error, 1)
	go func() {
		var sideWant bytes.Buffer
		sideCfg := trilliong.New(12)
		sideCfg.MasterSeed = 3
		if _, err := sideCfg.StreamRange(context.Background(), &sideWant, trilliong.TSV, 0, sideCfg.NumVertices()); err != nil {
			sideDone <- err
			return
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sideID + "/stream")
		if err != nil {
			sideDone <- err
			return
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err == nil && !bytes.Equal(got, sideWant.Bytes()) {
			t.Error("concurrent side job bytes differ")
		}
		sideDone <- err
	}()

	// Doomed job: read a sliver, hang up, expect cancellation.
	dresp, err := http.Get(ts.URL + "/v1/jobs/" + doomedID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(dresp.Body, make([]byte, 1<<15)); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	// Main job: stream and hash.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + mainID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	gotHash := sha256.New()
	gotBytes, err := io.Copy(gotHash, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes != wantBytes {
		t.Fatalf("streamed %d bytes, batch wrote %d", gotBytes, wantBytes)
	}
	if !bytes.Equal(gotHash.Sum(nil), wantHash.Sum(nil)) {
		t.Fatal("scale-20 stream is not bit-identical to GenerateToDir")
	}
	if err := <-sideDone; err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for state(doomedID) != "canceled" {
		if time.Now().After(deadline) {
			t.Fatalf("doomed job state %q, want canceled", state(doomedID))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := state(mainID); s != "done" {
		t.Fatalf("main job state %q", s)
	}

	// The cancellation is visible in the expvar counters.
	mresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var vars struct {
		JobsCanceled int64 `json:"jobs_canceled"`
		JobsDone     int64 `json:"jobs_done"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.JobsCanceled != 1 || vars.JobsDone != 2 {
		t.Fatalf("expvar jobs_canceled=%d jobs_done=%d", vars.JobsCanceled, vars.JobsDone)
	}
}
