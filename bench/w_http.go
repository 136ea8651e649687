package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/server"
)

// streamHTTP drives the generation service over real HTTP on loopback.
// It is a closed loop — a caller waits for its graph before asking for
// the next — of W clients with one connection each; every job of a
// repetition has its own master seed and no store is attached, so
// nothing is served from cache.
type streamHTTP struct {
	scale   int
	perCli  int
	srv     *server.Server
	ts      *httptest.Server
	clients []*http.Client
	specs   [][]server.JobSpec // [client][job]
	cfgs    [][]core.Config
	refs    [][]reference
	verify  bool

	// Accumulated over every repetition after the warm-up.
	firstByte, jobs []float64 // ms
	requests        int
	rejected        int
	edges           int64
	wall            time.Duration
}

func setupStreamHTTP(e env) (instance, error) {
	h := &streamHTTP{scale: pick(e, 15, 10), perCli: pick(e, 4, 2)}
	for c := 0; c < e.W; c++ {
		var specs []server.JobSpec
		var cfgs []core.Config
		var refs []reference
		for j := 0; j < h.perCli; j++ {
			cfg := core.DefaultConfig(h.scale)
			cfg.MasterSeed = e.master(uint64(400 + c*h.perCli + j))
			cfg.Workers = 1
			ref, err := referenceFor(cfg, gformat.TSV, nil)
			if err != nil {
				return nil, err
			}
			specs = append(specs, server.JobSpec{Scale: h.scale, MasterSeed: cfg.MasterSeed, Workers: 1, Format: "tsv"})
			cfgs, refs = append(cfgs, cfg), append(refs, ref)
		}
		h.specs, h.cfgs, h.refs = append(h.specs, specs), append(h.cfgs, cfgs), append(h.refs, refs)
		h.clients = append(h.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
	}
	h.srv = server.New(server.Options{})
	h.ts = httptest.NewServer(h.srv.Handler())

	h.verify = true
	r, err := h.rep(nil)
	h.verify = false
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("stream-http: %d of %d warm-up jobs failed or streamed bytes that differ from the in-process reference", r.failed, r.ops)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	h.firstByte, h.jobs, h.requests, h.rejected, h.edges, h.wall = nil, nil, 0, 0, 0, 0
	return h, nil
}

func (h *streamHTTP) size() string {
	return fmt.Sprintf("scale %d, edge factor 16, tsv, workers 1 per job: %d clients x %d jobs, %d edges per job",
		h.scale, len(h.clients), h.perCli, h.refs[0][0].edges)
}

func (h *streamHTTP) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.srv.Shutdown(ctx)
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	total, first time.Duration
	edges, bytes int64
	requests     int
	rejected     int
	failed       bool
}

func (h *streamHTTP) rep(tr *tracer) (repResult, error) {
	outcomes := make([][]jobOutcome, len(h.clients))
	root := tr.begin(0, "stream-http")
	start := time.Now()
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			span := tr.begin(root, spanName("http.client", c))
			var edges int64
			for j := range h.specs[c] {
				o := h.job(tr, span, c, j)
				outcomes[c] = append(outcomes[c], o)
				edges += o.edges
			}
			tr.finish(span, edges)
		}(c)
	}
	wg.Wait()
	res := repResult{wall: time.Since(start)}
	for _, perClient := range outcomes {
		for _, o := range perClient {
			res.edges += o.edges
			res.bytes += o.bytes
			res.ops++
			if o.failed {
				res.failed++
			}
			res.jobs = append(res.jobs, o.total)
			h.jobs = append(h.jobs, float64(o.total.Nanoseconds())/1e6)
			h.firstByte = append(h.firstByte, float64(o.first.Nanoseconds())/1e6)
			h.requests += o.requests
			h.rejected += o.rejected
		}
	}
	tr.finish(root, res.edges)
	h.edges += res.edges
	h.wall += res.wall
	return res, nil
}

// job posts one spec, reads its stream to EOF and checks what arrived:
// byte and edge (newline) counts always, the SHA-256 on the warm-up.
func (h *streamHTTP) job(tr *tracer, parent, c, j int) (o jobOutcome) {
	fail := func(format string, args ...any) jobOutcome {
		fmt.Fprintf(os.Stderr, "bench: stream-http client %d job %d: %s\n", c, j, fmt.Sprintf(format, args...))
		o.failed = true
		return o
	}
	body, err := json.Marshal(h.specs[c][j])
	if err != nil {
		return fail("%v", err)
	}
	sent := time.Now()
	o.requests++
	resp, err := h.clients[c].Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("POST: %v", err)
	}
	var created struct {
		StreamURL string `json:"stream_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&created)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	posted := time.Now()
	tr.add(parent, "http.post", sent, posted, 1)
	if resp.StatusCode != http.StatusCreated || err != nil {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			o.rejected++
		}
		return fail("POST answered %d (%v)", resp.StatusCode, err)
	}

	o.requests++
	resp, err = h.clients[c].Get(h.ts.URL + created.StreamURL)
	if err != nil {
		return fail("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			o.rejected++
		}
		return fail("stream answered %d", resp.StatusCode)
	}
	sum := sha256.New()
	buf := make([]byte, 64<<10)
	var firstAt time.Time
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if firstAt.IsZero() {
				firstAt = time.Now()
			}
			o.bytes += int64(n)
			o.edges += int64(bytes.Count(buf[:n], []byte{'\n'}))
			if h.verify {
				sum.Write(buf[:n])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("reading stream: %v", err)
		}
	}
	done := time.Now()
	if firstAt.IsZero() {
		firstAt = done
	}
	o.total, o.first = done.Sub(sent), firstAt.Sub(sent)
	tr.add(parent, "http.first_byte", posted, firstAt, 1)
	tr.add(parent, "http.body", firstAt, done, o.edges)

	ref := h.refs[c][j]
	if o.edges != ref.edges || o.bytes != ref.bytes {
		return fail("streamed %d edges / %d bytes, reference has %d / %d", o.edges, o.bytes, ref.edges, ref.bytes)
	}
	if h.verify && !bytes.Equal(sum.Sum(nil), ref.parts[0][:]) {
		return fail("stream bytes differ from core.Generate's for the same config")
	}
	return o
}

func (h *streamHTTP) layers(lp *layerPass) error {
	cfg := h.cfgs[0][0]
	if err := lp.common(cfg); err != nil {
		return err
	}
	if err := lp.partition(cfg, 1); err != nil {
		return err
	}
	lp.set("server.job_p90_ms", percentile(h.jobs, 0.90))
	lp.set("server.first_byte_p50_ms", median(h.firstByte))
	lp.set("server.rejected_share", float64(h.rejected)/float64(h.requests))

	// The same jobs without HTTP (StreamRange into io.Discard) and
	// without the pipeline (batch through the same TSV encoder into
	// io.Discard), W at a time as the clients run them, so the three
	// rates share a base.
	rate := func(one func(cfg core.Config) (int64, error)) (float64, error) {
		var rates []float64
		err := lp.loopReps(func() error {
			var edges int64
			var mu sync.Mutex
			var firstErr error
			start := time.Now()
			var wg sync.WaitGroup
			for c := range h.cfgs {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, cfg := range h.cfgs[c] {
						n, err := one(cfg)
						mu.Lock()
						edges += n
						if err != nil && firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			rates = append(rates, float64(edges)/time.Since(start).Seconds())
			return firstErr
		})
		return median(rates), err
	}
	streamRate, err := rate(func(cfg core.Config) (int64, error) {
		st, err := server.StreamRange(context.Background(), cfg, gformat.TSV, 0, cfg.NumVertices(), io.Discard, server.StreamOptions{Workers: 1})
		return st.Edges, err
	})
	if err != nil {
		return err
	}
	batchRate, err := rate(func(cfg core.Config) (int64, error) {
		st, err := core.Generate(cfg, func(int, partition.Range) (gformat.Writer, error) {
			return gformat.NewTSVWriter(io.Discard), nil
		})
		return st.Edges, err
	})
	if err != nil {
		return err
	}
	httpRate := float64(h.edges) / h.wall.Seconds()
	lp.set("server.stream_range_edges_per_sec", streamRate)
	lp.set("server.pipeline_overhead", 1-streamRate/batchRate)
	lp.set("server.http_overhead", 1-httpRate/streamRate)
	return nil
}
