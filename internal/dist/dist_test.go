package dist

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/telemetry"
)

func testConfig(scale int) core.Config {
	cfg := core.DefaultConfig(scale)
	cfg.MasterSeed = 321
	return cfg
}

// fastBackoff keeps worker redial loops snappy in tests.
var fastBackoff = backoff.Policy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}

// runCluster starts a master and `workers` in-process workers (each its
// own goroutine, as separate OS processes would be) and returns the
// summary plus each worker's output directory.
func runCluster(t *testing.T, mc MasterConfig, workers, threads int) (Summary, []string) {
	t.Helper()
	if mc.Addr == "" {
		mc.Addr = "127.0.0.1:0"
	}
	if mc.AcceptTimeout == 0 {
		mc.AcceptTimeout = 10 * time.Second
	}
	m, err := NewMaster(mc)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Addr()

	dirs := make([]string, workers)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerConfig{
				MasterAddr: addr,
				Threads:    threads,
				OutDir:     dirs[i],
				redial:     fastBackoff,
			})
		}(i)
	}
	sum, err := m.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	return sum, dirs
}

// readParts builds part-name → content for every part file in dirs. A
// part produced in two directories (possible after a requeue that the
// original worker survived) must be bit-identical in both.
func readParts(t *testing.T, dirs []string, ext string) map[string][]byte {
	t.Helper()
	parts := make(map[string][]byte)
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "part-*."+ext))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			base := filepath.Base(name)
			if prev, dup := parts[base]; dup {
				if string(prev) != string(b) {
					t.Fatalf("part %s differs between two workers", base)
				}
				continue
			}
			parts[base] = b
		}
	}
	return parts
}

// TestDistributedMatchesLocal: the union of the part files produced by
// a 3-machine × 2-thread cluster is the identical graph a single
// process generates.
func TestDistributedMatchesLocal(t *testing.T) {
	cfg := testConfig(10)

	sum, dirs := runCluster(t, MasterConfig{Workers: 3, Config: cfg, Format: gformat.ADJ6}, 3, 2)
	if sum.Workers != 3 || sum.TotalThreads != 6 || sum.Parts != 6 {
		t.Fatalf("summary %+v", sum)
	}

	distEdges := make(map[int64][]int64)
	partCount := 0
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "part-*.adj6"))
		if err != nil {
			t.Fatal(err)
		}
		partCount += len(files)
		for _, name := range files {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			r := gformat.NewADJ6Reader(f)
			for {
				src, dsts, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := distEdges[src]; dup {
					t.Fatalf("scope %d produced by two workers", src)
				}
				distEdges[src] = dsts
			}
			f.Close()
		}
	}
	if partCount != 6 {
		t.Fatalf("part files %d, want 6", partCount)
	}

	localCfg := cfg
	localCfg.Workers = 1
	localEdges := make(map[int64][]int64)
	localStats, err := core.Generate(localCfg, core.CallbackSinks(func(src int64, dsts []int64) error {
		if len(dsts) > 0 {
			localEdges[src] = append([]int64(nil), dsts...)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Edges != localStats.Edges {
		t.Fatalf("distributed %d edges, local %d", sum.Edges, localStats.Edges)
	}
	if len(distEdges) != len(localEdges) {
		t.Fatalf("distributed %d scopes, local %d", len(distEdges), len(localEdges))
	}
	for src, dsts := range localEdges {
		if !reflect.DeepEqual(distEdges[src], dsts) {
			t.Fatalf("scope %d differs between distributed and local", src)
		}
	}
}

// TestHeterogeneousWorkers: workers with different thread counts lease
// proportionally sized bundles and the run still completes.
func TestHeterogeneousWorkers(t *testing.T) {
	cfg := testConfig(9)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 2, Config: cfg, Format: gformat.TSV,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	var wg sync.WaitGroup
	var err1, err2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		err1 = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 1, OutDir: dir1, redial: fastBackoff})
	}()
	go func() {
		defer wg.Done()
		err2 = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 3, OutDir: dir2, redial: fastBackoff})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v %v", err, err1, err2)
	}
	if sum.TotalThreads != 4 || sum.Parts != 4 {
		t.Fatalf("summary %+v", sum)
	}
	g1, _ := filepath.Glob(filepath.Join(dir1, "part-*.tsv"))
	g2, _ := filepath.Glob(filepath.Join(dir2, "part-*.tsv"))
	if len(g1)+len(g2) != 4 {
		t.Fatalf("part files %d + %d, want 4", len(g1), len(g2))
	}
}

// TestMasterValidation.
func TestMasterValidation(t *testing.T) {
	if _, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Workers: 0, Config: testConfig(8)}); err == nil {
		t.Fatal("expected worker-count error")
	}
	bad := testConfig(8)
	bad.Scale = 0
	if _, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Config: bad}); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Workers: 2, MinWorkers: 3, Config: testConfig(8)}); err == nil {
		t.Fatal("expected min-workers error")
	}
	if _, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Parts: -1, Config: testConfig(8)}); err == nil {
		t.Fatal("expected parts error")
	}
}

// TestWorkerValidation.
func TestWorkerValidation(t *testing.T) {
	if err := RunWorker(WorkerConfig{MasterAddr: "127.0.0.1:1", Threads: 0, OutDir: t.TempDir()}); err == nil {
		t.Fatal("expected thread-count error")
	}
	err := RunWorker(WorkerConfig{MasterAddr: "127.0.0.1:1", Threads: 1, OutDir: "/nonexistent"})
	if err == nil || strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("missing outdir: err = %v, want a real message", err)
	}
	// A path that exists but is a file must name the actual problem,
	// not format a nil error.
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = RunWorker(WorkerConfig{MasterAddr: "127.0.0.1:1", Threads: 1, OutDir: file})
	if err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("file outdir: err = %v, want 'not a directory'", err)
	}
	// Nothing listening: the dial retries with backoff, then fails.
	start := time.Now()
	err = RunWorker(WorkerConfig{
		MasterAddr: "127.0.0.1:1", Threads: 1, OutDir: t.TempDir(),
		dialTimeout: 200 * time.Millisecond, MaxDials: 2, redial: fastBackoff,
	})
	if err == nil {
		t.Fatal("expected dial error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("dial retries not bounded")
	}
}

// TestMasterAcceptTimeout: a master whose fleet never reaches
// MinWorkers returns instead of hanging.
func TestMasterAcceptTimeout(t *testing.T) {
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 1, Config: testConfig(8),
		Format: gformat.ADJ6, AcceptTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Run(); err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honoured")
	}
}

// TestMasterHandshakeTimeout: a client that connects but never sends
// Hello (a half-open or hung worker) neither blocks the master nor
// counts as a registration.
func TestMasterHandshakeTimeout(t *testing.T) {
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 1, Config: testConfig(8),
		Format: gformat.ADJ6, handshakeTimeout: 100 * time.Millisecond,
		AcceptTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() // connected, but silent: no Hello ever arrives
	start := time.Now()
	if _, err := m.Run(); err == nil {
		t.Fatal("expected gate timeout: a silent connection is not a worker")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("master blocked past its deadlines")
	}
}

// TestDistributedCSR6: the binary CSR format works across the wire too.
func TestDistributedCSR6(t *testing.T) {
	cfg := testConfig(9)
	sum, dirs := runCluster(t, MasterConfig{Workers: 2, Config: cfg, Format: gformat.CSR6}, 2, 2)
	var edges int64
	for _, dir := range dirs {
		files, _ := filepath.Glob(filepath.Join(dir, "part-*.csr6"))
		for _, name := range files {
			f, err := os.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := gformat.ReadCSR6(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			edges += g.NumEdges()
		}
	}
	if edges != sum.Edges {
		t.Fatalf("CSR parts hold %d edges, summary says %d", edges, sum.Edges)
	}
}

// fakeWorker is a hand-rolled protocol speaker for failure-mode tests.
// serve is called per lease; it returns the reply to send, or nil to
// vanish (close the connection).
func fakeWorker(t *testing.T, addr string, threads int, serve func(job Job, n int) interface{}) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		var hello interface{} = Hello{Threads: threads}
		if err := enc.Encode(&hello); err != nil {
			done <- err
			return
		}
		for n := 0; ; n++ {
			var msg interface{}
			if err := dec.Decode(&msg); err != nil {
				done <- nil // master hung up on us: expected in these tests
				return
			}
			switch job := msg.(type) {
			case Bye:
				done <- nil
				return
			case Job:
				reply := serve(job, n)
				if reply == nil {
					done <- nil
					return
				}
				if err := enc.Encode(&reply); err != nil {
					done <- nil
					return
				}
			default:
				done <- nil
				return
			}
		}
	}()
	return done
}

// TestPersistentFailureAbortsRun: a worker that fails every lease
// exhausts the per-range attempt cap and the master reports the
// underlying error instead of retrying forever.
func TestPersistentFailureAbortsRun(t *testing.T) {
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 1, Parts: 1, MaxRetries: 1,
		Config: testConfig(8), Format: gformat.ADJ6,
		AcceptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := fakeWorker(t, m.Addr(), 1, func(Job, int) interface{} {
		return Fail{Error: "disk on fire"}
	})
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("master err = %v, want exhausted attempts carrying the worker error", err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("fake worker: %v", werr)
	}
}

// TestTransientFailureIsRetried: a worker whose first sink write fails
// reports Fail, gets the lease requeued, and completes it on retry.
func TestTransientFailureIsRetried(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("core.sink.write", "fail:transient disk wobble*1"); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(9)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 1, Parts: 2, Config: cfg, Format: gformat.ADJ6,
		AcceptTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 1, OutDir: dir, redial: fastBackoff})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || werr != nil {
		t.Fatalf("errs: %v / %v", err, werr)
	}
	if sum.Requeues == 0 {
		t.Fatalf("expected the failed lease to be requeued, summary %+v", sum)
	}
	if len(readParts(t, []string{dir}, "adj6")) != 2 {
		t.Fatal("retried run is missing parts")
	}
}

// TestStalledWorkerLeaseRequeued: a worker that takes a lease and goes
// silent past the heartbeat deadline loses the lease; a healthy worker
// finishes the run.
func TestStalledWorkerLeaseRequeued(t *testing.T) {
	cfg := testConfig(9)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 2, Parts: 4, Config: cfg, Format: gformat.ADJ6,
		AcceptTimeout:     5 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		ResultTimeout:     300 * time.Millisecond,
		MaxRetries:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stalled := fakeWorker(t, m.Addr(), 2, func(Job, int) interface{} {
		time.Sleep(2 * time.Second) // hold the lease well past the deadline, never beat
		return Fail{Error: "unreachable"}
	})
	dir := t.TempDir()
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 2, OutDir: dir, redial: fastBackoff})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || werr != nil {
		t.Fatalf("errs: %v / %v", err, werr)
	}
	if sum.Requeues == 0 {
		t.Fatalf("expected at least one requeue, summary %+v", sum)
	}
	parts := readParts(t, []string{dir}, "adj6")
	if len(parts) != 4 {
		t.Fatalf("healthy worker holds %d parts, want all 4", len(parts))
	}
	select {
	case <-stalled:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled fake worker never released")
	}
}

// TestVanishedWorkerLeaseRequeued: a worker that disconnects after
// taking a lease loses it to a healthy worker.
func TestVanishedWorkerLeaseRequeued(t *testing.T) {
	cfg := testConfig(9)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 2, Parts: 4, Config: cfg, Format: gformat.ADJ6,
		AcceptTimeout: 5 * time.Second, MaxRetries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	vanished := fakeWorker(t, m.Addr(), 2, func(Job, int) interface{} {
		return nil // close the connection while holding the lease
	})
	dir := t.TempDir()
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 2, OutDir: dir, redial: fastBackoff})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || werr != nil {
		t.Fatalf("errs: %v / %v", err, werr)
	}
	if sum.Requeues == 0 {
		t.Fatalf("expected a requeue, summary %+v", sum)
	}
	if len(readParts(t, []string{dir}, "adj6")) != 4 {
		t.Fatal("healthy worker did not pick up the vanished worker's parts")
	}
	<-vanished
}

// TestMinWorkersDegradedStart: a run asking for 3 workers with
// MinWorkers 2 completes when only 2 ever register.
func TestMinWorkersDegradedStart(t *testing.T) {
	cfg := testConfig(9)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 3, MinWorkers: 2, Config: cfg, Format: gformat.ADJ6,
		AcceptTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 2, OutDir: dirs[i], redial: fastBackoff})
		}(i)
	}
	sum, err := m.Run()
	wg.Wait()
	if err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs: %v %v %v", err, errs[0], errs[1])
	}
	if sum.Workers != 2 || sum.Parts != 4 {
		t.Fatalf("summary %+v", sum)
	}
	if len(readParts(t, dirs, "adj6")) != 4 {
		t.Fatal("degraded run did not produce every part")
	}
}

// TestWorkerConnectsViaBackoff: a worker started before its master
// retries the dial and registers once the master appears.
func TestWorkerConnectsViaBackoff(t *testing.T) {
	// Reserve an address, release it, and bring the master up there
	// only after the worker has started dialing.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	dir := t.TempDir()
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = RunWorker(WorkerConfig{
			MasterAddr: addr, Threads: 2, OutDir: dir,
			dialTimeout: time.Second, MaxDials: 20, redial: fastBackoff,
		})
	}()
	time.Sleep(300 * time.Millisecond)
	m, err := NewMaster(MasterConfig{
		Addr: addr, Workers: 1, Config: testConfig(9), Format: gformat.ADJ6,
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := m.Run()
	wg.Wait()
	if err != nil || werr != nil {
		t.Fatalf("errs: %v / %v", err, werr)
	}
	if sum.Workers != 1 || sum.Parts != 2 {
		t.Fatalf("summary %+v", sum)
	}
}

// TestWorkerResumesExistingParts: a worker pointed at a directory that
// already holds every part skips regeneration entirely — the cluster
// path reuses the resume-skip logic.
func TestWorkerResumesExistingParts(t *testing.T) {
	cfg := testConfig(9)
	mc := MasterConfig{Workers: 1, Parts: 4, Config: cfg, Format: gformat.ADJ6}
	_, dirs := runCluster(t, mc, 1, 2)

	before := readParts(t, dirs, "adj6")
	if len(before) != 4 {
		t.Fatalf("first run produced %d parts", len(before))
	}

	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 1, Parts: 4, Config: cfg, Format: gformat.ADJ6,
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		werr = RunWorker(WorkerConfig{MasterAddr: m.Addr(), Threads: 2, OutDir: dirs[0], redial: fastBackoff})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || werr != nil {
		t.Fatalf("errs: %v / %v", err, werr)
	}
	if sum.SkippedParts != 4 || sum.Edges != 0 {
		t.Fatalf("resumed run regenerated work: %+v", sum)
	}
	after := readParts(t, dirs, "adj6")
	for name, b := range before {
		if string(after[name]) != string(b) {
			t.Fatalf("part %s changed across resume", name)
		}
	}
}

// TestDecodeWithinTimesOut: a peer that never sends blocks the gob
// decode only until the deadline, and the deadline is cleared
// afterwards so later exchanges on the connection still work.
func TestDecodeWithinTimesOut(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	dec := gob.NewDecoder(a)
	var hi Hello
	start := time.Now()
	err := decodeWithin(a, dec, 50*time.Millisecond, &hi)
	if err == nil {
		t.Fatal("decode of a silent peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not honoured")
	}
	// The deadline must not linger: a message sent now decodes fine.
	go gob.NewEncoder(b).Encode(Hello{Threads: 3})
	if err := decodeWithin(a, dec, time.Second, &hi); err != nil || hi.Threads != 3 {
		t.Fatalf("post-timeout decode: %v %+v", err, hi)
	}
}

// TestEncodeWithinTimesOut: net.Pipe is unbuffered, so an encode to a
// peer that never reads models a zero-window (hung) TCP connection;
// the write deadline must break the stall.
func TestEncodeWithinTimesOut(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	enc := gob.NewEncoder(a)
	err := encodeWithin(a, enc, 50*time.Millisecond, Job{PartIDs: []int{1}})
	if err == nil {
		t.Fatal("encode to a stalled peer succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestMaxLeaseRanges: with the per-lease cap at 1, a 4-thread worker
// takes one range per round trip, so lease grants equal parts and the
// fair queue drains to zero (visible via the queue-depth gauge).
func TestMaxLeaseRanges(t *testing.T) {
	tel := telemetry.NewRegistry()
	cfg := testConfig(10)
	sum, dirs := runCluster(t, MasterConfig{
		Workers: 1, Parts: 6, Config: cfg, Format: gformat.TSV,
		MaxLeaseRanges: 1, Telemetry: tel,
	}, 1, 4)
	if sum.Parts != 6 || sum.Edges == 0 {
		t.Fatalf("summary %+v", sum)
	}
	if got := tel.CounterValue(MetricLeaseGrants); got != 6 {
		t.Fatalf("lease grants %d, want 6 (one range per lease)", got)
	}
	if parts := readParts(t, dirs, "tsv"); len(parts) != 6 {
		t.Fatalf("got %d part files, want 6", len(parts))
	}
	var buf strings.Builder
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trilliong_dist_master_queue_depth 0") {
		t.Fatalf("queue-depth gauge missing or non-zero:\n%s", buf.String())
	}
	if NewMasterErr := func() error {
		_, err := NewMaster(MasterConfig{Workers: 1, Config: cfg, MaxLeaseRanges: -1, Addr: "127.0.0.1:0"})
		return err
	}(); NewMasterErr == nil {
		t.Fatal("negative MaxLeaseRanges accepted")
	}
}

// TestDistributedCommunityMatchesBatch: a community job's blocks flow
// through leases like classic ranges, and the union of the workers'
// parts is byte-identical to the batch run of the same spec.
func TestDistributedCommunityMatchesBatch(t *testing.T) {
	spec := community.Config{
		Sizes:      []int64{8, 5, 8},
		Mixing:     [][]float64{{4, 1, 0}, {1, 2, 1}, {0, 1, 3}},
		Edges:      120,
		Noise:      0.1,
		MasterSeed: 11,
	}
	lay, err := community.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	if _, err := lay.GenerateToDir(refDir, gformat.ADJ6, community.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	sum, dirs := runCluster(t, MasterConfig{
		Workers:   2,
		Community: &spec,
		Format:    gformat.ADJ6,
	}, 2, 2)
	if sum.Parts != lay.NumBlocks() {
		t.Fatalf("master planned %d parts, layout has %d blocks", sum.Parts, lay.NumBlocks())
	}

	got := readParts(t, dirs, "adj6")
	want := readParts(t, []string{refDir}, "adj6")
	if len(got) != len(want) {
		t.Fatalf("cluster produced %d parts, batch %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("part %s missing from the cluster output", name)
		}
		if string(g) != string(w) {
			t.Fatalf("part %s differs from the batch output", name)
		}
	}
}

// TestMasterCommunityValidation: a broken community spec fails at
// NewMaster, before any worker connects.
func TestMasterCommunityValidation(t *testing.T) {
	bad := community.Config{
		Sizes:  []int64{8, 5},
		Mixing: [][]float64{{0, 0}, {0, 0}},
	}
	if _, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Workers: 1, Community: &bad, Format: gformat.ADJ6}); err == nil {
		t.Fatal("NewMaster accepted an all-zero mixing matrix")
	}
}
