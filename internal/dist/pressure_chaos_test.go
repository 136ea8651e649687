package dist

// Pressure chaos tests: workers advertising critical host pressure
// must be routed around — never starved into deadlock — and, as with
// every fault in this package, the part-file union must stay
// bit-identical to an undisturbed run. CI runs these with the other
// chaos tests (go test -race -run Chaos ./internal/dist/...).

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/telemetry"
)

// hotController builds a controller pinned at the given level. Its
// loop is never started and nothing samples it, so real host signals
// cannot move it off the forced level.
func hotController(lvl pressure.Level) *pressure.Controller {
	c := pressure.New(pressure.Config{MemBudgetBytes: -1})
	c.Force(lvl)
	return c
}

// pressureMasterConfig: parts pinned for comparable layouts, a
// generous result timeout so no expiry can sneak into the counters.
func pressureMasterConfig(cfg MasterConfig) MasterConfig {
	cfg.Addr = "127.0.0.1:0"
	cfg.Format = gformat.ADJ6
	cfg.AcceptTimeout = 10 * time.Second
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.ResultTimeout = 10 * time.Second
	cfg.MaxRetries = 8
	return cfg
}

// TestChaosPressureWithholdsFreshLeases: with one critical and one
// cool worker, every fresh range goes to the cool worker — the hot one
// leases nothing (there are no requeues to drain) yet is released
// cleanly, and the output is bit-identical to an undisturbed run.
func TestChaosPressureWithholdsFreshLeases(t *testing.T) {
	cfg := testConfig(10)

	faultpoint.Reset()
	mc := MasterConfig{Workers: 2, Parts: 4, Config: cfg}
	_, calmDirs := runCluster(t, pressureMasterConfig(mc), 2, 2)
	want := readParts(t, calmDirs, "adj6")
	if len(want) != 4 {
		t.Fatalf("reference run produced %d parts, want 4", len(want))
	}

	m, err := NewMaster(pressureMasterConfig(mc))
	if err != nil {
		t.Fatal(err)
	}
	hotDir, coldDir := t.TempDir(), t.TempDir()
	hotTel := telemetry.NewRegistry()
	var wg sync.WaitGroup
	var hotErr, coldErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		hotErr = RunWorker(WorkerConfig{
			MasterAddr: m.Addr(), Threads: 2, OutDir: hotDir,
			MaxDials: 30, redial: fastBackoff,
			Pressure: hotController(pressure.Critical), Telemetry: hotTel,
		})
	}()
	go func() {
		defer wg.Done()
		coldErr = RunWorker(WorkerConfig{
			MasterAddr: m.Addr(), Threads: 2, OutDir: coldDir,
			MaxDials: 30, redial: fastBackoff,
		})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || hotErr != nil || coldErr != nil {
		t.Fatalf("errs: %v / %v / %v", err, hotErr, coldErr)
	}

	tel := m.Telemetry()
	if got := tel.CounterValue(MetricLeasesWithheld); got == 0 {
		t.Fatal("hot worker was never withheld a fresh lease")
	}
	if got := hotTel.CounterValue(MetricWorkerLeases); got != 0 {
		t.Fatalf("hot worker received %d leases; all work should route to the cool worker", got)
	}
	if sum.Requeues != 0 {
		t.Fatalf("withholding caused %d requeues; it must be invisible to the fault ledger", sum.Requeues)
	}
	got := readParts(t, []string{hotDir, coldDir}, "adj6")
	if len(got) != len(want) {
		t.Fatalf("pressured run has %d parts, reference %d", len(got), len(want))
	}
	for name, b := range want {
		if string(got[name]) != string(b) {
			t.Fatalf("part %s differs from the undisturbed run", name)
		}
	}
}

// TestChaosPressureAllHotStillCompletes: when the whole fleet is
// critical there is nothing to route around — withholding disengages
// and the run completes normally rather than deadlocking.
func TestChaosPressureAllHotStillCompletes(t *testing.T) {
	cfg := testConfig(10)

	faultpoint.Reset()
	mc := MasterConfig{Workers: 1, Parts: 2, Config: cfg}
	_, calmDirs := runCluster(t, pressureMasterConfig(mc), 1, 2)
	want := readParts(t, calmDirs, "adj6")

	m, err := NewMaster(pressureMasterConfig(mc))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		workerErr = RunWorker(WorkerConfig{
			MasterAddr: m.Addr(), Threads: 2, OutDir: dir,
			MaxDials: 30, redial: fastBackoff,
			Pressure: hotController(pressure.Critical),
		})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || workerErr != nil {
		t.Fatalf("errs: %v / %v", err, workerErr)
	}

	if got := m.Telemetry().CounterValue(MetricLeasesWithheld); got != 0 {
		t.Fatalf("all-hot fleet recorded %d withheld leases; want 0", got)
	}
	if sum.Parts != 2 {
		t.Fatalf("parts = %d, want 2", sum.Parts)
	}
	got := readParts(t, []string{dir}, "adj6")
	if len(got) != len(want) {
		t.Fatalf("all-hot run has %d parts, reference %d", len(got), len(want))
	}
	for name, b := range want {
		if string(got[name]) != string(b) {
			t.Fatalf("part %s differs from the undisturbed run", name)
		}
	}
}

// TestChaosPressureRequeueDrainsThroughHotWorker: the cool worker's
// connection drops mid-generation and (MaxDials 1) it never comes
// back, leaving requeued ranges and a fleet that is all-hot. The hot
// worker — withheld at the start — must pick up everything, and the
// union of part files still matches the undisturbed run exactly.
func TestChaosPressureRequeueDrainsThroughHotWorker(t *testing.T) {
	cfg := testConfig(10)

	faultpoint.Reset()
	mc := MasterConfig{Workers: 2, Parts: 4, Config: cfg}
	_, calmDirs := runCluster(t, pressureMasterConfig(mc), 2, 2)
	want := readParts(t, calmDirs, "adj6")

	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	if err := faultpoint.Arm("dist.worker.scope", "drop*1"); err != nil {
		t.Fatal(err)
	}

	m, err := NewMaster(pressureMasterConfig(mc))
	if err != nil {
		t.Fatal(err)
	}
	hotDir, coldDir := t.TempDir(), t.TempDir()
	hotTel := telemetry.NewRegistry()
	var wg sync.WaitGroup
	var hotErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		hotErr = RunWorker(WorkerConfig{
			MasterAddr: m.Addr(), Threads: 2, OutDir: hotDir,
			MaxDials: 30, redial: fastBackoff,
			Pressure: hotController(pressure.Critical), Telemetry: hotTel,
		})
	}()
	go func() {
		defer wg.Done()
		// The cool worker takes the first fresh lease (the hot one is
		// withheld), hits the armed drop, and gives up for good.
		RunWorker(WorkerConfig{
			MasterAddr: m.Addr(), Threads: 2, OutDir: coldDir,
			MaxDials: 1, redial: fastBackoff,
		})
	}()
	sum, err := m.Run()
	wg.Wait()
	if err != nil || hotErr != nil {
		t.Fatalf("errs: %v / %v", err, hotErr)
	}

	if faultpoint.Hits("dist.worker.scope") == 0 {
		t.Fatal("drop faultpoint never fired")
	}
	if sum.Requeues == 0 {
		t.Fatalf("dropped connection was never requeued: %+v", sum)
	}
	if got := hotTel.CounterValue(MetricWorkerLeases); got == 0 {
		t.Fatal("hot worker never leased; requeued and orphaned work must drain through it")
	}
	got := readParts(t, []string{hotDir, coldDir}, "adj6")
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
