package dist

// Chaos tests: runs disturbed by injected faults must converge to the
// exact file set of an undisturbed run. CI executes them as their own
// race-enabled step (go test -race -run Chaos ./internal/dist/...) so
// a flake here is attributable to the fault-tolerance machinery.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/telemetry"
)

// chaosMasterConfig pins Parts so the file layout is comparable across
// runs regardless of which workers survive.
func chaosMasterConfig(cfg core.Config) MasterConfig {
	return MasterConfig{
		Addr:              "127.0.0.1:0",
		Workers:           3,
		Parts:             6,
		Config:            cfg,
		Format:            gformat.ADJ6,
		AcceptTimeout:     10 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		ResultTimeout:     700 * time.Millisecond,
		MaxRetries:        8,
	}
}

// runChaosCluster runs a 3-worker cluster under whatever faultpoints
// are armed. Worker errors are tolerated: a worker whose lease was
// requeued can outlive the run and fail its final reconnect, exactly
// like a real machine that comes back after the job finished.
func runChaosCluster(t *testing.T, cfg core.Config) (Summary, []string, *telemetry.Registry) {
	t.Helper()
	return runChaosClusterWith(t, chaosMasterConfig(cfg))
}

func runChaosClusterWith(t *testing.T, mc MasterConfig) (Summary, []string, *telemetry.Registry) {
	t.Helper()
	m, err := NewMaster(mc)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Errors deliberately dropped: see above.
			RunWorker(WorkerConfig{
				MasterAddr: m.Addr(),
				Threads:    2,
				OutDir:     dirs[i],
				MaxDials:   30,
				Backoff:    backoff.Policy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
			})
		}(i)
	}
	sum, err := m.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	return sum, dirs, m.Telemetry()
}

// assertTelemetryMatchesSummary: the registry is fed by the same code
// paths that build the Summary, so the two must agree exactly — any
// drift means a lease event was recorded in one ledger but not the
// other.
func assertTelemetryMatchesSummary(t *testing.T, tel *telemetry.Registry, sum Summary) {
	t.Helper()
	if got := tel.CounterValue(MetricRequeues); got != int64(sum.Requeues) {
		t.Fatalf("telemetry requeues %d, summary %d", got, sum.Requeues)
	}
	if got := tel.CounterValue(MetricMasterEdges); got != sum.Edges {
		t.Fatalf("telemetry edges %d, summary %d", got, sum.Edges)
	}
	if got := tel.CounterValue(MetricPartsSkipped); got != int64(sum.SkippedParts) {
		t.Fatalf("telemetry skipped parts %d, summary %d", got, sum.SkippedParts)
	}
	if got := tel.CounterValue(MetricPartsCompleted); got != int64(sum.Parts) {
		t.Fatalf("telemetry completed parts %d, summary %d", got, sum.Parts)
	}
}

// TestChaosKillAndStallBitIdentical is the acceptance scenario: one
// worker is killed mid-generation (connection dropped from inside the
// scope-write path; the worker then reconnects, as a restarted process
// would) and another worker's heartbeat stalls past the deadline. The
// run must complete on the surviving/restarted workers and the union
// of part files must be bit-identical to an undisturbed run.
func TestChaosKillAndStallBitIdentical(t *testing.T) {
	cfg := testConfig(10)

	// Undisturbed reference run.
	faultpoint.Reset()
	_, calmDirs, calmTel := runChaosCluster(t, cfg)
	want := readParts(t, calmDirs, "adj6")
	if len(want) != 6 {
		t.Fatalf("reference run produced %d parts, want 6", len(want))
	}
	if got := calmTel.CounterValue(MetricRequeues); got != 0 {
		t.Fatalf("undisturbed run recorded %d requeues", got)
	}

	// Disturbed run: kill one worker mid-generation, stall another's
	// heartbeat for far longer than the master tolerates.
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.ArmSpecs("dist.worker.scope=drop*1,dist.worker.heartbeat=stall:3s*1"); err != nil {
		t.Fatal(err)
	}
	sum, chaosDirs, tel := runChaosCluster(t, cfg)
	got := readParts(t, chaosDirs, "adj6")

	if faultpoint.Hits("dist.worker.scope") == 0 {
		t.Fatal("kill faultpoint never fired")
	}
	if sum.Requeues == 0 {
		t.Fatalf("faults injected but nothing was requeued: %+v", sum)
	}
	assertTelemetryMatchesSummary(t, tel, sum)
	// The dropped connection costs at least one requeue. The stall's
	// effect is timing-dependent (a stall that fires as the lease
	// finishes still delivers Done in time), so only the drop gives a
	// deterministic lower bound; the exact fault→counter mapping is
	// pinned by TestChaosTelemetryCountsInjectedFaults.
	if hits := int64(faultpoint.Hits("dist.worker.scope")); tel.CounterValue(MetricRequeues) < hits {
		t.Fatalf("requeues %d < injected connection drops %d", tel.CounterValue(MetricRequeues), hits)
	}
	if len(got) != len(want) {
		t.Fatalf("disturbed run has %d parts, reference %d", len(got), len(want))
	}
	for name, b := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("disturbed run is missing %s", name)
		}
		if string(g) != string(b) {
			t.Fatalf("part %s is not bit-identical to the undisturbed run", name)
		}
	}
}

// TestChaosSinkFailureRetriedElsewhere: an injected write failure makes
// one lease Fail; the requeued ranges complete on a retry and the file
// set is still exactly the reference set. Leases are capped at one
// range: a failed lease is requeued once however many of its ranges
// failed, so only then does every injected failure map to its own
// requeue, whatever the scheduling.
func TestChaosSinkFailureRetriedElsewhere(t *testing.T) {
	cfg := testConfig(10)
	mc := chaosMasterConfig(cfg)
	mc.MaxLeaseRanges = 1

	faultpoint.Reset()
	_, calmDirs, _ := runChaosCluster(t, cfg)
	want := readParts(t, calmDirs, "adj6")

	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("core.sink.write", "fail:injected disk failure*2"); err != nil {
		t.Fatal(err)
	}
	sum, chaosDirs, tel := runChaosClusterWith(t, mc)
	got := readParts(t, chaosDirs, "adj6")

	if sum.Requeues == 0 {
		t.Fatalf("write failures injected but nothing was requeued: %+v", sum)
	}
	assertTelemetryMatchesSummary(t, tel, sum)
	if hits := int64(faultpoint.Hits("core.sink.write")); tel.CounterValue(MetricRequeues) < hits {
		t.Fatalf("requeues %d < injected write failures %d", tel.CounterValue(MetricRequeues), hits)
	}
	if len(got) != len(want) {
		t.Fatalf("disturbed run has %d parts, reference %d", len(got), len(want))
	}
	for name, b := range want {
		if string(got[name]) != string(b) {
			t.Fatalf("part %s differs from the undisturbed run", name)
		}
	}
}

// TestChaosTelemetryCountsInjectedFaults pins the fault→counter
// mapping exactly: a single worker with one thread, a heartbeat cadence
// far inside the result deadline (so no expiry can sneak in), and one
// injected write failure must produce exactly one requeue, one requeued
// range, and one worker-side failure — no more, no fewer.
func TestChaosTelemetryCountsInjectedFaults(t *testing.T) {
	cfg := testConfig(10)

	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("core.sink.write", "fail:injected disk failure*1"); err != nil {
		t.Fatal(err)
	}

	m, err := NewMaster(MasterConfig{
		Addr:              "127.0.0.1:0",
		Workers:           1,
		Parts:             2,
		Config:            cfg,
		Format:            gformat.ADJ6,
		AcceptTimeout:     10 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		ResultTimeout:     10 * time.Second,
		MaxRetries:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	wtel := telemetry.NewRegistry()
	outDir := t.TempDir()
	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		workerErr = RunWorker(WorkerConfig{
			MasterAddr: m.Addr(),
			Threads:    1,
			OutDir:     outDir,
			MaxDials:   30,
			Backoff:    fastBackoff,
			Telemetry:  wtel,
		})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || workerErr != nil {
		t.Fatalf("errs: %v / %v", err, workerErr)
	}

	if hits := faultpoint.Hits("core.sink.write"); hits != 1 {
		t.Fatalf("faultpoint fired %d times, want 1", hits)
	}
	tel := m.Telemetry()
	if got := tel.CounterValue(MetricRequeues); got != 1 {
		t.Fatalf("requeues counter %d, want exactly the 1 injected fault", got)
	}
	if got := tel.CounterValue(MetricRequeuedRanges); got != 1 {
		t.Fatalf("requeued ranges counter %d, want 1", got)
	}
	if got := tel.CounterValue(MetricLeaseExpiries); got != 0 {
		t.Fatalf("lease expiries counter %d, want 0 (no timing faults injected)", got)
	}
	if got := wtel.CounterValue(MetricWorkerFailures); got != 1 {
		t.Fatalf("worker failures counter %d, want 1", got)
	}
	assertTelemetryMatchesSummary(t, tel, sum)
	if sum.Requeues != 1 {
		t.Fatalf("summary requeues %d, want 1", sum.Requeues)
	}
	if got := readParts(t, []string{outDir}, "adj6"); len(got) != 2 {
		t.Fatalf("run produced %d parts, want 2", len(got))
	}
}

// helperEnv carries "masterAddr|outDir|threads" to the re-exec'd
// worker subprocess below.
const helperEnv = "DIST_TEST_WORKER"

// TestHelperWorkerProcess is not a test: it is the body of the worker
// subprocess spawned by TestChaosProcessCrashAndRestart, selected via
// -test.run. An armed crash point genuinely kills this process.
func TestHelperWorkerProcess(t *testing.T) {
	spec := os.Getenv(helperEnv)
	if spec == "" {
		t.Skip("helper process body; not a test")
	}
	fields := strings.Split(spec, "|")
	if len(fields) != 3 {
		fmt.Fprintf(os.Stderr, "bad %s=%q\n", helperEnv, spec)
		os.Exit(2)
	}
	if err := faultpoint.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	threads, err := strconv.Atoi(fields[2])
	if err != nil {
		os.Exit(2)
	}
	if err := RunWorker(WorkerConfig{
		MasterAddr: fields[0], Threads: threads, OutDir: fields[1],
		MaxDials: 30, Backoff: backoff.Policy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestChaosProcessCrashAndRestart kills a real worker process with an
// armed crash point mid-generation, restarts it against the same
// output directory, and requires the union of part files to be
// bit-identical to an undisturbed run — the resume path regenerates
// nothing it can trust and everything it cannot.
func TestChaosProcessCrashAndRestart(t *testing.T) {
	cfg := testConfig(10)

	// Undisturbed reference.
	faultpoint.Reset()
	mc := MasterConfig{Workers: 2, Parts: 4, Config: cfg, Format: gformat.ADJ6}
	_, calmDirs := runCluster(t, mc, 2, 2)
	want := readParts(t, calmDirs, "adj6")
	if len(want) != 4 {
		t.Fatalf("reference run produced %d parts, want 4", len(want))
	}

	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Workers: 2, Parts: 4, Config: cfg, Format: gformat.ADJ6,
		AcceptTimeout:     10 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
		ResultTimeout:     700 * time.Millisecond,
		MaxRetries:        8,
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		sum Summary
		err error
	}
	masterCh := make(chan outcome, 1)
	go func() {
		s, e := m.Run()
		masterCh <- outcome{s, e}
	}()

	// Healthy in-process worker.
	healthyDir := t.TempDir()
	var wg sync.WaitGroup
	var healthyErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		healthyErr = RunWorker(WorkerConfig{
			MasterAddr: m.Addr(), Threads: 2, OutDir: healthyDir,
			MaxDials: 30, Backoff: backoff.Policy{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond},
		})
	}()

	// Doomed subprocess worker: crashes on its first scope write.
	crashDir := t.TempDir()
	spawn := func(armed bool) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperWorkerProcess$")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s|%s|2", helperEnv, m.Addr(), crashDir))
		if armed {
			cmd.Env = append(cmd.Env, faultpoint.EnvVar+"=dist.worker.scope=crash:7*1")
		} else {
			cmd.Env = append(cmd.Env, faultpoint.EnvVar+"=")
		}
		cmd.Stderr = os.Stderr
		return cmd
	}
	doomed := spawn(true)
	if err := doomed.Start(); err != nil {
		t.Fatalf("spawning worker process: %v", err)
	}
	err = doomed.Wait()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 7 {
		t.Fatalf("doomed worker exited with %v, want crash code 7", err)
	}

	// Restart it, pointed at the same directory: it resumes. Its exit
	// status is irrelevant — the run may already be finished by the
	// healthy worker, leaving the restart nothing to connect to.
	restarted := spawn(false)
	if err := restarted.Start(); err != nil {
		t.Fatalf("restarting worker process: %v", err)
	}
	defer restarted.Wait()

	res := <-masterCh
	wg.Wait()
	if res.err != nil || healthyErr != nil {
		t.Fatalf("errs: %v / %v", res.err, healthyErr)
	}
	if res.sum.Requeues == 0 {
		t.Fatalf("crashed worker's lease was never requeued: %+v", res.sum)
	}

	got := readParts(t, []string{healthyDir, crashDir}, "adj6")
	if len(got) != len(want) {
		t.Fatalf("disturbed run has %d parts, reference %d", len(got), len(want))
	}
	for name, b := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("disturbed run is missing %s", name)
		}
		if string(g) != string(b) {
			t.Fatalf("part %s is not bit-identical to the undisturbed run", name)
		}
	}
}
