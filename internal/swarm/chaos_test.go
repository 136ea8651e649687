package swarm

// Chaos tests: swarm runs disturbed by injected faults — workers
// killed mid-part, duplicate-claim races, late joiners, pressure
// throttling — must converge to the exact file set of a single-process
// batch run. CI executes them as their own race-enabled step
// (go test -race -run Chaos ./internal/swarm/...).

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/telemetry"
)

// waitFor polls cond until it holds: chaos tests wait on the event —
// a faultpoint hit, a file appearing — never on a guess at how long it
// takes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func markers(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "part-*.claim.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChaosKillMidPartBitIdentical is the acceptance scenario: three
// workers share one directory, one of them fails mid-part (its first
// part write fails, aborting its Run with the part unpublished and its
// temp file behind). A claim that fails lets its marker go, so the
// survivors take the part over without waiting out their patience —
// which noSteal makes longer than the test — and complete the job with
// zero messages, bit-identical to batch.
func TestChaosKillMidPartBitIdentical(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(10)
	const parts = 6
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	// One write fails process-wide: exactly one of the three workers —
	// whichever generates first — dies mid-part.
	if err := faultpoint.Arm("core.sink.write", "fail*1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sums := make([]Summary, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = Run(cfg, dir, gformat.ADJ6, Options{
				Parts:        parts,
				WorkerID:     uint64(i + 1),
				ScanInterval: noSteal,
			})
		}(i)
	}
	wg.Wait()
	dead := 0
	for i, err := range errs {
		if err != nil {
			dead++
			t.Logf("worker %d died: %v", i, err)
		}
	}
	if dead != 1 {
		t.Fatalf("%d workers died, armed for exactly 1", dead)
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	if m := markers(t, dir); len(m) != 0 {
		t.Fatalf("claim markers left behind: %v", m)
	}
	// The victim may have published parts before dying; summed over all
	// three, every part still has exactly one winner.
	if total(sums, claimed) != parts || total(sums, lost) != 0 || total(sums, stolen) != 0 {
		t.Fatalf("want %d parts won, none lost or stolen: %+v", parts, sums)
	}
}

// TestMain doubles as the crash victim of
// TestChaosCrashedOwnerMarkerIsStolen: re-executed with victimDirEnv
// set, the test binary runs one swarm worker whose first part write
// calls os.Exit, which is what a kill -9 leaves behind.
func TestMain(m *testing.M) {
	if dir := os.Getenv(victimDirEnv); dir != "" {
		if err := faultpoint.Arm("core.sink.write", "crash*1"); err != nil {
			panic(err)
		}
		Run(testConfig(10), dir, gformat.ADJ6, Options{Parts: victimParts, WorkerID: 1})
		os.Exit(0) // not reached: the armed crash exits 7
	}
	os.Exit(m.Run())
}

const (
	victimDirEnv = "SWARM_TEST_VICTIM_DIR"
	victimParts  = 6
)

// TestChaosCrashedOwnerMarkerIsStolen: a worker process killed mid-part
// leaves its claim marker and its temp file. Two survivors defer to the
// marker, wait out their patience on their own clocks, and one of them
// steals the part — the thief re-signs the marker, so the other keeps
// waiting instead of drawing it too — and removes the marker once the
// part is published. Bytes identical to batch.
func TestChaosCrashedOwnerMarkerIsStolen(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(10)
	want := batchRef(t, cfg, victimParts, gformat.ADJ6)

	dir := t.TempDir()
	victim := exec.Command(os.Args[0], "-test.run=^$")
	victim.Env = append(os.Environ(), victimDirEnv+"="+dir)
	var exit *exec.ExitError
	if out, err := victim.CombinedOutput(); !errors.As(err, &exit) || exit.ExitCode() != 7 {
		t.Fatalf("victim did not crash at its armed faultpoint: %v\n%s", err, out)
	}
	if m := markers(t, dir); len(m) != 1 {
		t.Fatalf("crashed victim left markers %v, want exactly the part it was drawing", m)
	}

	sums := runWorkers(t, cfg, dir, Options{Parts: victimParts, ScanInterval: 20 * time.Millisecond}, 2, 3)
	assertSameParts(t, readDir(t, dir, victimParts, gformat.ADJ6), want)
	if m := markers(t, dir); len(m) != 0 {
		t.Fatalf("claim markers left behind: %v", m)
	}
	// The victim published nothing, so the survivors won every part. A
	// steal is the only way a part is drawn twice: each one beyond the
	// victim's part is a survivor outrunning the other's patience on a
	// loaded machine, and costs exactly one lost publish.
	steals := total(sums, stolen)
	if total(sums, claimed) != victimParts || steals < 1 || total(sums, lost) != steals-1 {
		t.Fatalf("want %d parts won, the victim's part stolen, one lost publish per further steal: %+v", victimParts, sums)
	}
}

// TestChaosStaleMarkerIsStolen: a marker with no owner behind it — a
// worker that died long ago — delays a lone worker once: it draws
// everything else, waits out its patience on that one part, steals
// exactly it, and leaves no marker.
func TestChaosStaleMarkerIsStolen(t *testing.T) {
	cfg := testConfig(9)
	const parts, orphan = 4, 2
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	dir := t.TempDir()
	if err := os.WriteFile(core.PartPath(dir, gformat.ADJ6, orphan)+".claim.tmp", []byte("gone"), 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	sum, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts, WorkerID: 1, ScanInterval: 20 * time.Millisecond, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if sum.Claimed != parts || sum.Deferred != 1 || sum.Stolen != 1 || sum.Lost != 0 || sum.Epochs != 1 {
		t.Fatalf("want %d parts won in one pass, one of them deferred and then stolen: %+v", parts, sum)
	}
	if sum.Elapsed < 20*time.Millisecond {
		t.Fatalf("worker stole within %v, before its %v patience floor", sum.Elapsed, 20*time.Millisecond)
	}
	if tel.CounterValue(MetricClaimsDeferred) != 1 || tel.CounterValue(MetricClaimsStolen) != 1 || tel.Histogram(MetricWaitSeconds).Count() != 1 {
		t.Fatalf("telemetry disagrees with the summary %+v", sum)
	}
}

// TestChaosEpochAdvancementDeterministic forces a second claim pass
// deterministically: a lone worker's first claim stalls on the armed
// faultpoint while the test (standing in for a peer on a filesystem that
// tore its publish) puts a damaged file under the name of the part at
// the head of the shared order, the heaviest. The worker wakes, finds the part
// published, skips it and — no collision stop — draws all the others in
// the same pass. Its verifying scan then rejects the damaged part, and
// only that sends it into epoch 1 to draw it.
func TestChaosEpochAdvancementDeterministic(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(9)
	const parts = 4
	format := gformat.ADJ6
	want := batchRef(t, cfg, parts, format)

	dir := t.TempDir()
	ranges, ids, err := cfg.Plan(parts)
	if err != nil {
		t.Fatal(err)
	}
	head := ids[heaviestFirst(ranges, ids)[0]]

	if err := faultpoint.Arm(PointClaim, "stall:500ms*1"); err != nil {
		t.Fatal(err)
	}
	var (
		sum Summary
		wg  sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sum, err = Run(cfg, dir, format, Options{
			Parts:        parts,
			WorkerID:     42,
			ScanInterval: noSteal,
		})
	}()
	// The worker has scanned (all missing) once it is stalled at its
	// first claim. Damage that very part during the stall.
	waitFor(t, "the worker's first claim", func() bool { return faultpoint.Hits(PointClaim) == 1 })
	if werr := os.WriteFile(core.PartPath(dir, format, head), []byte("torn"), 0o644); werr != nil {
		t.Fatal(werr)
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameParts(t, readDir(t, dir, parts, format), want)
	assertNoTempLitter(t, dir)
	if sum.Skipped != 1 {
		t.Fatalf("worker skipped %d claims, want exactly the pre-published head part: %+v", sum.Skipped, sum)
	}
	if sum.Claimed != parts || sum.Deferred != 0 {
		t.Fatalf("worker claimed %d parts, want all %d once the damaged one was rejected: %+v", sum.Claimed, parts, sum)
	}
	if sum.Epochs != 2 {
		t.Fatalf("worker finished in %d claim passes, want 2 — one walk past the skip to the end, one for the rejected part: %+v", sum.Epochs, sum)
	}
}

// TestChaosDuplicateClaimRace pits two workers with the *same*
// identity (and, as for any two workers, the same order) against a
// one-part job, with a
// stall holding both at the claim until each has seen the part missing.
// The marker lets exactly one of them draw: one generation, one winner,
// and the other defers to the marker or, arriving late, skips the
// published part.
func TestChaosDuplicateClaimRace(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(9)
	const parts = 1
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	if err := faultpoint.Arm(PointClaim, "stall:300ms*2"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tels := [2]*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	sums := make([]Summary, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = Run(cfg, dir, gformat.ADJ6, Options{
				Parts:        parts,
				WorkerID:     7, // deliberately shared: maximal collision pressure
				ScanInterval: noSteal,
				Telemetry:    tels[i],
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	skipped := sums[0].Skipped + sums[1].Skipped
	if total(sums, claimed) != 1 || total(sums, lost) != 0 || total(sums, deferred)+skipped != 1 {
		t.Fatalf("want one generation and one worker standing aside: %+v", sums)
	}
	if min(sums[0].Edges, sums[1].Edges) != 0 {
		t.Fatalf("both workers generated: %+v", sums)
	}
	for i := range tels {
		if got := tels[i].CounterValue(MetricClaimsDeferred); got != int64(sums[i].Deferred) {
			t.Fatalf("worker %d telemetry deferred %d, summary %d", i, got, sums[i].Deferred)
		}
	}
}

// TestChaosLateJoiner starts one worker alone on a slowed job, then a
// second joins the shared directory once the first has published a
// part; the pair must finish with batch-identical bytes, every part
// drawn once.
func TestChaosLateJoiner(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(9)
	const parts = 6
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	// Slow every write a little so the first worker cannot finish the
	// job before the second has joined.
	if err := faultpoint.Arm("core.sink.write", "stall:100us"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sums := make([]Summary, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		sums[i], errs[i] = Run(cfg, dir, gformat.ADJ6, Options{
			Parts: parts, WorkerID: uint64(i + 1), ScanInterval: noSteal,
		})
	}
	wg.Add(1)
	go run(0)
	waitFor(t, "the early worker to publish a part", func() bool {
		published, _ := filepath.Glob(filepath.Join(dir, "part-*.adj6"))
		return len(published) >= 1
	})
	wg.Add(1)
	go run(1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if total(sums, claimed) != parts || total(sums, lost) != 0 {
		t.Fatalf("want %d parts won and none lost across workers: %+v", parts, sums)
	}
	t.Logf("late-joiner split: early %+v, joiner %+v", sums[0], sums[1])
}

// TestChaosCriticalPressureThrottlesClaims runs a lone worker whose
// host is forced to critical pressure: every claim must pay a throttle
// wait — before it takes the part's marker, never while holding one,
// or the pause would park the part for every peer — yet the worker,
// last one standing with no cooler peer to yield to, still completes
// with bit-identical bytes. Pressure degrades rate, never bytes and
// never liveness.
func TestChaosCriticalPressureThrottlesClaims(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(9)
	const parts = 3
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	ctrl := pressure.New(pressure.Config{})
	ctrl.Force(pressure.Critical)
	tel := telemetry.NewRegistry()

	dir := t.TempDir()
	var (
		sum Summary
		err error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sum, err = Run(cfg, dir, gformat.ADJ6, Options{
			Parts: parts, WorkerID: 1, ScanInterval: noSteal,
			Pressure: ctrl, throttleCritical: 250 * time.Millisecond, Telemetry: tel,
		})
	}()
	// The wait is counted as the pause begins, and the pause is long:
	// the worker is inside its first one now, and must hold no marker.
	waitFor(t, "the first throttle wait", func() bool { return tel.CounterValue(MetricThrottleWaits) >= 1 })
	if m := markers(t, dir); len(m) != 0 {
		t.Fatalf("worker pauses for pressure while holding %v", m)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if sum.Claimed != parts {
		t.Fatalf("critical lone worker claimed %d parts, want %d", sum.Claimed, parts)
	}
	if waits := tel.CounterValue(MetricThrottleWaits); waits != int64(parts) {
		t.Fatalf("critical worker recorded %d throttle waits, want one per claim (%d)", waits, parts)
	}
	// Recovery lifts the brake: a fresh directory at OK pressure
	// records zero waits.
	ctrl.Force(pressure.OK)
	tel2 := telemetry.NewRegistry()
	if _, err := Run(cfg, t.TempDir(), gformat.ADJ6, Options{
		Parts: parts, WorkerID: 1, Pressure: ctrl, Telemetry: tel2,
	}); err != nil {
		t.Fatal(err)
	}
	if waits := tel2.CounterValue(MetricThrottleWaits); waits != 0 {
		t.Fatalf("OK-pressure worker recorded %d throttle waits, want 0", waits)
	}
}

// TestChaosScanFaultAbortsCleanly: a failing completion scan aborts
// the worker with the injected error; a fresh worker then finishes the
// job in the same directory.
func TestChaosScanFaultAbortsCleanly(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(8)
	const parts = 2
	dir := t.TempDir()
	if err := faultpoint.Arm(PointScan, "fail:scan disk gone*1"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts}); err == nil {
		t.Fatal("worker survived a failing completion scan")
	}
	faultpoint.Reset()
	sum, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Claimed != parts {
		t.Fatalf("recovery worker claimed %d, want %d", sum.Claimed, parts)
	}
	want := batchRef(t, cfg, parts, gformat.ADJ6)
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
}

// TestChaosMaxEpochsBackstop: a part that can never be published —
// its final path is squatted by a non-empty directory, so scans flag
// it missing (structurally invalid, undeletable) while every claim
// sees "present" and skips — must trip the MaxEpochs backstop instead
// of spinning forever, after drawing the part it can.
func TestChaosMaxEpochsBackstop(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(8)
	const parts = 2
	dir := t.TempDir()
	squat := core.PartPath(dir, gformat.ADJ6, 1)
	if err := os.MkdirAll(filepath.Join(squat, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	sum, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts, MaxEpochs: 3, ScanInterval: time.Millisecond})
	if err == nil {
		t.Fatal("worker with an unpublishable part returned success")
	}
	t.Logf("backstop: %v", err)
	if sum.Epochs != 3 || sum.Claimed != 1 || sum.Skipped != 3 {
		t.Fatalf("want 3 passes, the good part won in the first and the squatted one skipped in each: %+v", sum)
	}
	assertNoTempLitter(t, dir)
}
