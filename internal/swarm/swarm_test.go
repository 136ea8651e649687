package swarm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func testConfig(scale int) core.Config {
	cfg := core.DefaultConfig(scale)
	cfg.MasterSeed = 321
	return cfg
}

// batchRef generates the single-process reference file set: the bytes
// every swarm run, however disturbed, must converge to.
func batchRef(t *testing.T, cfg core.Config, parts int, format gformat.Format) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	ranges, err := core.Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, parts)
	for i := range ids {
		ids[i] = i
	}
	if _, err := core.GenerateRanges(cfg, ranges, core.AtomicPartSinks(dir, format, cfg.NumVertices(), ids)); err != nil {
		t.Fatal(err)
	}
	return readDir(t, dir, parts, format)
}

// readDir reads the full expected part set from dir, failing on any
// absent part, and asserts no temp litter remains (clean runs must not
// leave any; only killed workers may).
func readDir(t *testing.T, dir string, parts int, format gformat.Format) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, parts)
	for id := 0; id < parts; id++ {
		path := core.PartPath(dir, format, id)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("part %d: %v", id, err)
		}
		out[filepath.Base(path)] = b
	}
	return out
}

// noSteal is a ScanInterval no test draw outlasts: ScanInterval is only
// the patience floor, so a large one costs a clean run nothing and rules
// steals — the one source of duplicated generation — out of it.
const noSteal = time.Minute

// runWorkers runs one worker per identity concurrently against dir and
// fails the test on any worker error.
func runWorkers(t *testing.T, src core.PartSource, dir string, opts Options, workerIDs ...uint64) []Summary {
	t.Helper()
	sums := make([]Summary, len(workerIDs))
	errs := make([]error, len(workerIDs))
	var wg sync.WaitGroup
	for i, id := range workerIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.WorkerID = id
			sums[i], errs[i] = Run(src, dir, gformat.ADJ6, o)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", workerIDs[i], err)
		}
	}
	return sums
}

// total sums one field over the workers' summaries.
func total(sums []Summary, field func(Summary) int) int {
	n := 0
	for _, s := range sums {
		n += field(s)
	}
	return n
}

func claimed(s Summary) int  { return s.Claimed }
func lost(s Summary) int     { return s.Lost }
func deferred(s Summary) int { return s.Deferred }
func stolen(s Summary) int   { return s.Stolen }

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "part-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("clean run left temp litter: %v", tmps)
	}
}

func assertSameParts(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d parts, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("part %s missing", name)
		}
		if string(g) != string(w) {
			t.Fatalf("part %s differs from batch output", name)
		}
	}
}

// TestHeaviestFirstOrder: the walk order is a permutation of the plan's
// positions, by decreasing Edges + rowCost·(Hi−Lo) with ties broken by
// part id, the same for every worker and every call — it reads the plan
// and nothing else. A classic plan's parts share their expected edges,
// so there the rows decide alone.
func TestHeaviestFirstOrder(t *testing.T) {
	cost := func(r partition.Range) int64 { return r.Edges + rowCost*(r.Hi-r.Lo) }
	check := func(name string, ranges []partition.Range, ids []int) []int {
		t.Helper()
		order := heaviestFirst(ranges, ids)
		seen := make([]bool, len(ranges))
		for _, pos := range order {
			if pos < 0 || pos >= len(ranges) || seen[pos] {
				t.Fatalf("%s: not a permutation: %v", name, order)
			}
			seen[pos] = true
		}
		if len(order) != len(ranges) {
			t.Fatalf("%s: %d positions for %d parts", name, len(order), len(ranges))
		}
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			if ca, cb := cost(ranges[a]), cost(ranges[b]); ca < cb || ca == cb && ids[a] > ids[b] {
				t.Fatalf("%s: part %d (cost %d) walked before part %d (cost %d): %v", name, ids[a], ca, ids[b], cb, order)
			}
		}
		if again := heaviestFirst(ranges, ids); !slices.Equal(again, order) {
			t.Fatalf("%s: order not deterministic: %v then %v", name, order, again)
		}
		return order
	}

	// Ties by id, whatever order the plan lists them in; rows weigh
	// rowCost edges each (the expected order holds for 4 ≤ rowCost ≤ 22).
	order := check("crafted", []partition.Range{
		{Lo: 0, Hi: 10, Edges: 100},  // id 5: 100 + 10·rowCost
		{Lo: 10, Hi: 20, Edges: 100}, // id 2: the same cost
		{Lo: 20, Hi: 21, Edges: 300}, // id 7: 300 + rowCost
		{Lo: 21, Hi: 121, Edges: 0},  // id 0: 100·rowCost
		{Lo: 121, Hi: 121, Edges: 0}, // id 1: nothing
	}, []int{5, 2, 7, 0, 1})
	if want := []int{3, 2, 1, 0, 4}; !slices.Equal(order, want) {
		t.Fatalf("crafted plan walked %v, want %v", order, want)
	}

	cfg := testConfig(14)
	ranges, ids, err := cfg.Plan(16)
	if err != nil {
		t.Fatal(err)
	}
	order = check("classic", ranges, ids)
	for k := 1; k < len(order); k++ {
		if r, q := ranges[order[k-1]], ranges[order[k]]; r.Edges == q.Edges && r.Hi-r.Lo < q.Hi-q.Lo {
			t.Fatalf("classic plan: equal-edge part %d with %d rows before part %d with %d", ids[order[k-1]], r.Hi-r.Lo, ids[order[k]], q.Hi-q.Lo)
		}
	}

	// Whatever its identity, a lone worker's first claim is the head of
	// the order: while its first write stands still, its one marker is
	// that part's.
	faultpoint.Reset()
	defer faultpoint.Reset()
	head := core.PartPath("", gformat.ADJ6, ids[order[0]]) + ".claim.tmp"
	for _, id := range []uint64{1, 2, 0xfeed} {
		if err := faultpoint.Arm("core.sink.write", "stall:50ms*1"); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		done := make(chan error, 1)
		go func() {
			_, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: 16, WorkerID: id, ScanInterval: noSteal})
			done <- err
		}()
		waitFor(t, "the first part write", func() bool { return faultpoint.Hits("core.sink.write") >= 1 })
		m := markers(t, dir)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(m) != 1 || filepath.Base(m[0]) != filepath.Base(head) {
			t.Fatalf("worker %d first claimed %v, want the head of the order %s", id, m, filepath.Base(head))
		}
		faultpoint.Reset()
	}
}

// TestTwoWorkersClaimHeaviestFirst is the order at work, on counted
// events: two workers start together, and by the time anything is
// written the heaviest part's marker is taken — both walks begin with
// it, so the first claim the fleet makes is that part — and the run
// ends with every part won once, none lost, none stolen, and the batch
// run's bytes.
func TestTwoWorkersClaimHeaviestFirst(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(10)
	const parts = 8
	want := batchRef(t, cfg, parts, gformat.ADJ6)
	ranges, ids, err := cfg.Plan(parts)
	if err != nil {
		t.Fatal(err)
	}
	// The heaviest part, found here without the order under test.
	heaviest, most := -1, int64(-1)
	for i, r := range ranges {
		if c := r.Edges + rowCost*(r.Hi-r.Lo); c > most {
			heaviest, most = ids[i], c
		}
	}

	// The first write anywhere in the process holds still while the
	// directory is looked at.
	if err := faultpoint.Arm("core.sink.write", "stall:200ms*1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	final := core.PartPath(dir, gformat.ADJ6, heaviest)
	taken := make(chan bool, 1)
	go func() {
		for deadline := time.Now().Add(30 * time.Second); faultpoint.Hits("core.sink.write") < 1 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		_, err := os.Stat(final + ".claim.tmp")
		taken <- err == nil || published(final)
	}()
	sums := runWorkers(t, cfg, dir, Options{Parts: parts, ScanInterval: noSteal}, 1, 2)
	if !<-taken {
		t.Fatalf("the heaviest part %d was not claimed before the first write", heaviest)
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if total(sums, claimed) != parts || total(sums, lost) != 0 || total(sums, stolen) != 0 {
		t.Fatalf("want %d parts won, none lost or stolen: %+v", parts, sums)
	}
}

func TestRunRequiresPinnedParts(t *testing.T) {
	if _, err := Run(testConfig(8), t.TempDir(), gformat.ADJ6, Options{}); err == nil {
		t.Fatal("Run accepted Parts=0")
	}
	if _, err := Run(testConfig(8), filepath.Join(t.TempDir(), "absent"), gformat.ADJ6, Options{Parts: 2}); err == nil {
		t.Fatal("Run accepted a nonexistent shared directory")
	}
}

func TestRunRejectsMismatchedJobInSharedDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(testConfig(8), dir, gformat.ADJ6, Options{Parts: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testConfig(9), dir, gformat.ADJ6, Options{Parts: 2}); err == nil {
		t.Fatal("mismatched config accepted against a claimed shared directory")
	}
	if _, err := Run(testConfig(8), dir, gformat.ADJ6, Options{Parts: 4}); err == nil {
		t.Fatal("mismatched part count accepted against a claimed shared directory")
	}
}

func TestRunSingleWorkerMatchesBatch(t *testing.T) {
	cfg := testConfig(9)
	const parts = 4
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	dir := t.TempDir()
	tel := telemetry.NewRegistry()
	sum, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts, Threads: 2, ScanInterval: 20 * time.Millisecond, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if sum.Claimed != parts || sum.Lost != 0 || sum.Skipped != 0 || sum.FromCache != 0 || sum.Deferred != 0 || sum.Stolen != 0 || sum.Waited != 0 {
		t.Fatalf("lone worker accounting off: %+v", sum)
	}
	if sum.Epochs != 1 {
		t.Fatalf("lone worker took %d claim epochs, want 1", sum.Epochs)
	}
	if sum.Edges == 0 || sum.BytesWritten == 0 {
		t.Fatalf("no generation recorded: %+v", sum)
	}
	if got := tel.CounterValue(MetricPartsClaimed); got != int64(parts) {
		t.Fatalf("telemetry claimed %d, summary %d", got, parts)
	}
	if got := tel.CounterValue(MetricEdges); got != sum.Edges {
		t.Fatalf("telemetry edges %d, summary %d", got, sum.Edges)
	}
}

func TestRunJoiningFinishedJobOnlyVerifies(t *testing.T) {
	cfg := testConfig(8)
	const parts = 3
	dir := t.TempDir()
	if _, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts}); err != nil {
		t.Fatal(err)
	}
	sum, err := Run(cfg, dir, gformat.ADJ6, Options{Parts: parts})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Claimed != 0 || sum.Epochs != 0 {
		t.Fatalf("joiner to a finished job did work: %+v", sum)
	}
	if sum.Verified != parts {
		t.Fatalf("joiner verified %d parts, want %d", sum.Verified, parts)
	}
}

func TestRunStoreIsSecondRendezvousSurface(t *testing.T) {
	cfg := testConfig(9)
	const parts = 4
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg, t.TempDir(), gformat.ADJ6, Options{Parts: parts, Store: st}); err != nil {
		t.Fatal(err)
	}
	// A worker in a *fresh* directory sharing the store regenerates
	// nothing: every part materializes from the store.
	dir2 := t.TempDir()
	tel := telemetry.NewRegistry()
	sum, err := Run(cfg, dir2, gformat.ADJ6, Options{Parts: parts, Store: st, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if sum.FromCache != parts || sum.Claimed != 0 {
		t.Fatalf("warm store run regenerated: %+v", sum)
	}
	if got := tel.CounterValue(MetricStoreHits); got != int64(parts) {
		t.Fatalf("telemetry store hits %d, want %d", got, parts)
	}
	assertSameParts(t, readDir(t, dir2, parts, gformat.ADJ6), want)
}

// TestRunThreeWorkersBitIdentical: the undisturbed swarm case — three
// workers sharing one directory converge on exactly the batch file set
// with every part published by exactly one winner.
func TestRunThreeWorkersBitIdentical(t *testing.T) {
	cfg := testConfig(10)
	const parts = 6
	want := batchRef(t, cfg, parts, gformat.ADJ6)

	dir := t.TempDir()
	sums := runWorkers(t, cfg, dir, Options{Parts: parts, ScanInterval: noSteal}, 1, 2, 3)
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if total(sums, claimed) != parts || total(sums, lost) != 0 {
		t.Fatalf("want %d parts won and none lost across workers: %+v", parts, sums)
	}
}

// TestRunDrawsEveryPartOnce is the point of claim markers, on counted
// work: for a pair of workers, a trio, and a pair sharing one WorkerID
// (identities do not move the walk, and markers, not ids, keep workers
// apart), with a stall at every claim so the walks overlap, the fleet
// generates exactly the batch run's edges — no part twice — every part
// has one winner, no publish is lost, nobody needs a second pass, and
// the bytes are the batch run's.
func TestRunDrawsEveryPartOnce(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	cfg := testConfig(9)
	const parts = 16
	want := batchRef(t, cfg, parts, gformat.ADJ6)
	ref, err := core.Generate(cfg, core.DiscardSinks(gformat.ADJ6))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm(PointClaim, "stall:200us"); err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]uint64{{1, 5}, {1, 5, 13}, {3, 3}} {
		dir := t.TempDir()
		sums := runWorkers(t, cfg, dir, Options{Parts: parts, ScanInterval: noSteal}, ids...)
		assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
		assertNoTempLitter(t, dir)
		var edges int64
		for _, s := range sums {
			edges += s.Edges
			if s.Epochs > 1 {
				t.Fatalf("ids %v: worker %d took %d claim passes: %+v", ids, s.WorkerID, s.Epochs, sums)
			}
		}
		if edges != ref.Edges {
			t.Fatalf("ids %v: fleet generated %d edges, the batch run %d: %+v", ids, edges, ref.Edges, sums)
		}
		if total(sums, claimed) != parts || total(sums, lost) != 0 || total(sums, stolen) != 0 {
			t.Fatalf("ids %v: want %d parts won, none lost or stolen: %+v", ids, parts, sums)
		}
	}
}

// TestRunCommunityBlocksBitIdentical: a community layout's blocks
// are the swarm's claimable parts, and two cooperating workers
// converge on the byte-exact file set of a single-process batch run.
func TestRunCommunityBlocksBitIdentical(t *testing.T) {
	lay, err := community.New(community.Config{
		Sizes:      []int64{8, 5, 8},
		Mixing:     [][]float64{{4, 1, 0}, {1, 2, 1}, {0, 1, 3}},
		Edges:      120,
		Noise:      0.1,
		MasterSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts := lay.NumBlocks()

	refDir := t.TempDir()
	if _, err := lay.GenerateToDir(refDir, gformat.ADJ6, community.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want := readDir(t, refDir, parts, gformat.ADJ6)

	dir := t.TempDir()
	sums := runWorkers(t, lay, dir, Options{Parts: parts, ScanInterval: noSteal}, 1, 2)
	assertSameParts(t, readDir(t, dir, parts, gformat.ADJ6), want)
	assertNoTempLitter(t, dir)
	if total(sums, claimed) != parts || total(sums, lost) != 0 {
		t.Fatalf("want %d blocks won and none lost across workers: %+v", parts, sums)
	}
}

// TestRunCommunitySharesStoreWithBatch: parts a batch run ingested
// into the artifact store are claimed from the cache by a later swarm
// run of the identical spec — the store key fingerprints the layout,
// not the execution mode.
func TestRunCommunitySharesStoreWithBatch(t *testing.T) {
	spec := community.Config{
		Sizes:      []int64{8, 5},
		Mixing:     [][]float64{{4, 1}, {1, 2}},
		Edges:      80,
		MasterSeed: 7,
	}
	lay, err := community.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batchDir := t.TempDir()
	if _, err := lay.GenerateToDir(batchDir, gformat.ADJ6, community.RunOptions{Store: st}); err != nil {
		t.Fatal(err)
	}

	// An independent resolution of the same spec must hit the cache.
	lay2, err := community.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	swarmDir := t.TempDir()
	sum, err := Run(lay2, swarmDir, gformat.ADJ6, Options{
		Parts:        lay2.NumBlocks(),
		ScanInterval: 20 * time.Millisecond,
		Store:        st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.FromCache != lay2.NumBlocks() {
		t.Fatalf("swarm run took %d of %d parts from the store", sum.FromCache, lay2.NumBlocks())
	}
	assertSameParts(t,
		readDir(t, swarmDir, lay2.NumBlocks(), gformat.ADJ6),
		readDir(t, batchDir, lay.NumBlocks(), gformat.ADJ6))
}

// TestObservabilityDocListsEveryMetric diffs the swarm.* table of
// docs/OBSERVABILITY.md against the Metric* constants of telemetry.go:
// a metric added, renamed or retired without its row fails here.
func TestObservabilityDocListsEveryMetric(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "telemetry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			if strings.HasPrefix(name.Name, "Metric") {
				v, err := strconv.Unquote(spec.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				code[v] = true
			}
		}
		return true
	})

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 5 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`swarm.") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		documented[name] = true
		if !code[name] {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which telemetry.go does not define", name)
		}
		if prom, want := strings.Trim(strings.TrimSpace(cells[2]), "`"), "trilliong_"+strings.ReplaceAll(name, ".", "_"); prom != want {
			t.Errorf("docs/OBSERVABILITY.md gives %s the Prometheus name %s, want %s", name, prom, want)
		}
	}
	for name := range code {
		if !documented[name] {
			t.Errorf("telemetry.go defines %s, which docs/OBSERVABILITY.md does not list", name)
		}
	}
	if len(code) == 0 {
		t.Fatal("no Metric* constants found in telemetry.go")
	}
}
