package community

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/avs"
	"repro/internal/core"
	"repro/internal/erv"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// testConfig mixes the engines: community 0 (size 8, power of two)
// runs AVS with noise, community 1 (size 5) and both off-diagonal
// rectangles run ERV.
func testConfig() Config {
	return Config{
		Sizes:      []int64{8, 5},
		Mixing:     [][]float64{{4, 1}, {1, 2}},
		Edges:      80,
		Noise:      0.1,
		MasterSeed: 7,
	}
}

func mustLayout(t *testing.T, cfg Config) *Layout {
	t.Helper()
	lay, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// streamLayout streams every block in part order through
// core.StreamParts — the way the HTTP server streams a community job —
// and returns the bytes. Every scope must be told of by its written
// chunk.
func streamLayout(t *testing.T, lay *Layout, format gformat.Format, workers int) ([]byte, core.Stats) {
	t.Helper()
	ranges, ids, err := lay.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var scopes atomic.Int64
	st, err := core.StreamParts(context.Background(), lay, format, ranges, ids, workers, &buf, nil, func(_ int, done core.Stats) error {
		scopes.Add(done.Scopes)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scopes.Load() != lay.ScopeTotal() || st.Scopes != lay.ScopeTotal() {
		t.Fatalf("%d scopes told of by the written chunks, %d counted, ScopeTotal is %d", scopes.Load(), st.Scopes, lay.ScopeTotal())
	}
	return buf.Bytes(), st
}

// readParts returns each part's bytes indexed by block id.
func readParts(t *testing.T, lay *Layout, dir string, format gformat.Format) [][]byte {
	t.Helper()
	out := make([][]byte, lay.NumBlocks())
	for id := range out {
		b, err := os.ReadFile(core.PartPath(dir, format, id))
		if err != nil {
			t.Fatal(err)
		}
		out[id] = b
	}
	return out
}

func TestBudgetsSumToTotalExactly(t *testing.T) {
	lay := mustLayout(t, testConfig())
	var sum int64
	for _, b := range lay.Blocks() {
		if b.Edges <= 0 {
			t.Fatalf("block (%d,%d) has non-positive budget %d", b.SrcComm, b.DstComm, b.Edges)
		}
		sum += b.Edges
	}
	if sum != 80 || lay.TotalEdges() != 80 {
		t.Fatalf("budgets sum to %d (TotalEdges %d), want 80", sum, lay.TotalEdges())
	}
	if lay.NumBlocks() != 4 {
		t.Fatalf("4 positive mixing entries, got %d blocks", lay.NumBlocks())
	}
	if lay.NumVertices() != 13 {
		t.Fatalf("NumVertices = %d, want 13", lay.NumVertices())
	}
}

func TestSplitBudgetLargestRemainder(t *testing.T) {
	got := splitBudget([]float64{1, 1, 1}, 10)
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("split %v does not sum to 10", got)
	}
	// Ties go to the lower index.
	if got[0] < got[2] {
		t.Fatalf("remainder order not index-stable: %v", got)
	}
}

func TestGenerateToDirDeterministic(t *testing.T) {
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
		lay := mustLayout(t, testConfig())
		dirA, dirB := t.TempDir(), t.TempDir()
		stA, err := lay.GenerateToDir(dirA, format, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lay.GenerateToDir(dirB, format, RunOptions{}); err != nil {
			t.Fatal(err)
		}
		// Per-scope degrees are stochastic draws (binomial for ERV,
		// dedup for AVS), so the realized count only tracks the budget.
		if stA.Edges < lay.TotalEdges()/2 || stA.Edges > 2*lay.TotalEdges() {
			t.Fatalf("%v: generated %d edges, budget %d", format, stA.Edges, lay.TotalEdges())
		}
		a, b := readParts(t, lay, dirA, format), readParts(t, lay, dirB, format)
		for id := range a {
			if !bytes.Equal(a[id], b[id]) {
				t.Fatalf("%v: part %d differs between two runs of the same config", format, id)
			}
		}
	}
}

func TestStreamEqualsConcatenatedParts(t *testing.T) {
	lay := mustLayout(t, testConfig())
	dir := t.TempDir()
	if _, err := lay.GenerateToDir(dir, gformat.TSV, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var concat bytes.Buffer
	for _, p := range readParts(t, lay, dir, gformat.TSV) {
		concat.Write(p)
	}

	for _, workers := range []int{1, 3} {
		streamed, st := streamLayout(t, lay, gformat.TSV, workers)
		if !bytes.Equal(concat.Bytes(), streamed) {
			t.Fatalf("workers %d: streamed bytes differ from the part files concatenated in part order", workers)
		}
		if st.BytesWritten != int64(len(streamed)) {
			t.Fatalf("workers %d: stats count %d bytes, stream has %d", workers, st.BytesWritten, len(streamed))
		}
	}
}

func TestResumeSkipsCompleteParts(t *testing.T) {
	lay := mustLayout(t, testConfig())
	dir := t.TempDir()
	if _, err := lay.GenerateToDir(dir, gformat.ADJ6, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := lay.GenerateToDir(dir, gformat.ADJ6, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges != 0 {
		t.Fatalf("rerun into a complete directory regenerated %d edges", st.Edges)
	}
}

func TestStoreCacheHitsAcrossRuns(t *testing.T) {
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
		lay := mustLayout(t, testConfig())
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		if _, err := lay.GenerateToDir(dirA, format, RunOptions{Store: st}); err != nil {
			t.Fatal(err)
		}
		sum, err := lay.GenerateToDir(dirB, format, RunOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if sum.PartsFromCache != lay.NumBlocks() {
			t.Fatalf("%v: second run hit %d of %d parts in the store", format, sum.PartsFromCache, lay.NumBlocks())
		}
		a, b := readParts(t, lay, dirA, format), readParts(t, lay, dirB, format)
		for id := range a {
			if !bytes.Equal(a[id], b[id]) {
				t.Fatalf("%v: store-materialized part %d differs from the generated original", format, id)
			}
		}
		// A block's sidecar — its digest taken by the block's writer, not
		// by reading the part back — is the SHA-256 of the part file.
		ranges, ids, err := lay.Plan(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			key := lay.PartKey(format, id, ranges[i]).String()
			raw, err := os.ReadFile(filepath.Join(st.Dir(), "objects", key[:2], key+".sum"))
			if err != nil {
				t.Fatal(err)
			}
			side, err := store.ParseSidecar(raw)
			if err != nil {
				t.Fatal(err)
			}
			if want := sha256.Sum256(a[id]); side.SHA256 != hex.EncodeToString(want[:]) || side.Size != int64(len(a[id])) {
				t.Errorf("%v: block %d sidecar %s/%d, part file %x/%d", format, id, side.SHA256, side.Size, want, len(a[id]))
			}
		}
	}
}

func TestPartKeysFingerprintLayoutAndMixing(t *testing.T) {
	base := mustLayout(t, testConfig())
	ranges, ids, err := base.Plan(0)
	if err != nil {
		t.Fatal(err)
	}

	mixed := testConfig()
	mixed.Mixing = [][]float64{{1, 4}, {2, 1}}
	sized := testConfig()
	sized.Sizes = []int64{8, 6}
	for name, other := range map[string]Config{"mixing": mixed, "sizes": sized} {
		lay := mustLayout(t, other)
		if lay.Fingerprint() == base.Fingerprint() {
			t.Fatalf("config differing only in %s shares the fingerprint", name)
		}
		oRanges, oIDs, err := lay.Plan(0)
		if err != nil {
			t.Fatal(err)
		}
		if lay.PartKey(gformat.ADJ6, oIDs[0], oRanges[0]) == base.PartKey(gformat.ADJ6, ids[0], ranges[0]) {
			t.Fatalf("config differing only in %s shares block 0's store key", name)
		}
	}

	// The identical config re-resolved addresses the identical artifacts.
	again := mustLayout(t, testConfig())
	for i := range ids {
		if again.PartKey(gformat.ADJ6, ids[i], ranges[i]) != base.PartKey(gformat.ADJ6, ids[i], ranges[i]) {
			t.Fatalf("block %d key unstable across two resolutions of one config", i)
		}
	}
	if base.PartKey(gformat.TSV, ids[0], ranges[0]) == base.PartKey(gformat.ADJ6, ids[0], ranges[0]) {
		t.Fatal("store key ignores the format")
	}
}

func TestSamplerIsSeededAndBounded(t *testing.T) {
	a := sampleSizes(16, 64, 8192, 2, 99)
	b := sampleSizes(16, 64, 8192, 2, 99)
	c := sampleSizes(16, 64, 8192, 2, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampler not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 64 || a[i] > 8192 {
			t.Fatalf("size %d outside [64, 8192]", a[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different master seeds sampled identical sizes")
	}
}

func TestBipartiteIsSingleRectangularBlock(t *testing.T) {
	lay := mustLayout(t, Bipartite(8, 16, 64, 9))
	if lay.NumBlocks() != 1 {
		t.Fatalf("bipartite resolved to %d blocks, want 1", lay.NumBlocks())
	}
	b := lay.Blocks()[0]
	if b.Intra || b.SrcLo != 0 || b.SrcHi != 8 || b.DstLo != 8 || b.DstHi != 24 || b.Edges != 64 {
		t.Fatalf("bipartite block = %+v", b)
	}

	streamed, _ := streamLayout(t, lay, gformat.TSV, 1)
	r := gformat.NewTSVReader(bytes.NewReader(streamed))
	edges := 0
	for {
		e, err := r.Next()
		if err != nil {
			break
		}
		edges++
		if e.Src < 0 || e.Src >= 8 || e.Dst < 8 || e.Dst >= 24 {
			t.Fatalf("edge (%d, %d) escapes the bipartite rectangle", e.Src, e.Dst)
		}
	}
	if edges == 0 {
		t.Fatal("bipartite graph generated no edges")
	}
}

func TestCommunityOf(t *testing.T) {
	lay := mustLayout(t, testConfig())
	cases := map[int64]int{-1: -1, 0: 0, 7: 0, 8: 1, 12: 1, 13: -1}
	for v, want := range cases {
		if got := lay.CommunityOf(v); got != want {
			t.Fatalf("CommunityOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestPlanRejectsForeignPartCounts(t *testing.T) {
	lay := mustLayout(t, testConfig())
	if _, _, err := lay.Plan(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lay.Plan(lay.NumBlocks()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lay.Plan(lay.NumBlocks() + 1); err == nil {
		t.Fatal("Plan accepted a part count the layout cannot honor")
	}
}

func TestCSR6Rejected(t *testing.T) {
	lay := mustLayout(t, testConfig())
	if _, err := lay.GenerateToDir(t.TempDir(), gformat.CSR6, RunOptions{}); err == nil {
		t.Fatal("CSR6 accepted: the blocked layout repeats source scopes")
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	badSize := testConfig()
	badSize.Sizes = []int64{8, 0}
	var rerr *erv.RangeError
	if _, err := New(badSize); !errors.As(err, &rerr) {
		t.Fatalf("zero-size community: got %v, want *erv.RangeError", err)
	}

	for name, mutate := range map[string]func(*Config){
		"zero mixing":      func(c *Config) { c.Mixing = [][]float64{{0, 0}, {0, 0}} },
		"ragged mixing":    func(c *Config) { c.Mixing = [][]float64{{1}, {1, 1}} },
		"wrong dims":       func(c *Config) { c.Mixing = [][]float64{{1}} },
		"negative weight":  func(c *Config) { c.Mixing[0][0] = -1 },
		"budget>capacity":  func(c *Config) { c.Edges = 10_000 },
		"no sizes/sampler": func(c *Config) { c.Sizes = nil },
	} {
		cfg := testConfig()
		cfg.Mixing = [][]float64{{4, 1}, {1, 2}}
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("%s: New accepted the spec", name)
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"sizes": [8, 5], "mixxing": []}`)); err == nil {
		t.Fatal("typoed key decoded silently")
	}
	if _, err := ParseSpec([]byte(`{"sizes": [8, 5], "mixing": [[4, 1], [1, 2]]} {"edges": 1}`)); err == nil {
		t.Fatal("data after the spec decoded silently")
	}
	cfg, err := ParseSpec([]byte(`{"sizes": [8, 5], "mixing": [[4, 1], [1, 2]], "edges": 80, "master_seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sizes[1] != 5 || cfg.Edges != 80 || cfg.MasterSeed != 7 {
		t.Fatalf("spec decoded to %+v", cfg)
	}
}

func TestConfigRoundTripsThroughManifest(t *testing.T) {
	lay := mustLayout(t, testConfig())
	dir := t.TempDir()
	if _, err := lay.GenerateToDir(dir, gformat.TSV, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	man, err := core.ReadRunManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Config != nil {
		t.Fatalf("a community manifest records a classic config %+v", *man.Config)
	}
	cfg, err := ParseSpec(man.Source)
	if err != nil {
		t.Fatal(err)
	}
	again, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != lay.Fingerprint() {
		t.Fatal("manifest spec resolves to a different layout")
	}
}

func TestTelemetryCounters(t *testing.T) {
	lay := mustLayout(t, testConfig())
	tel := telemetry.NewRegistry()
	st, err := lay.GenerateToDir(t.TempDir(), gformat.TSV, RunOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.GaugeValue(MetricCommunities); got != 2 {
		t.Fatalf("%s = %v, want 2", MetricCommunities, got)
	}
	if got := tel.GaugeValue(MetricBlocksPlanned); got != float64(lay.NumBlocks()) {
		t.Fatalf("%s = %v, want %d", MetricBlocksPlanned, got, lay.NumBlocks())
	}
	if got := tel.CounterValue(MetricBlocksGenerated); got != int64(lay.NumBlocks()) {
		t.Fatalf("%s = %v, want %d", MetricBlocksGenerated, got, lay.NumBlocks())
	}
	intra, inter := tel.CounterValue(MetricIntraEdges), tel.CounterValue(MetricInterEdges)
	if intra <= 0 || inter <= 0 || intra+inter != st.Edges {
		t.Fatalf("intra %d + inter %d != generated %d", intra, inter, st.Edges)
	}
}

// TestGoldenERVStreamBytes pins whole-stream bytes of an all-ERV layout
// (no community size is a power of two, so every block takes the
// rectangle path; Noise is set and must not reach it). The digests were
// generated at PR 17's parent. The sizes put hub rows on the dedup
// set's bitmap tier (3000 ≤ 64·size), tail rows on its table tier, and
// the dense 37×37 block on the attempt cap.
func TestGoldenERVStreamBytes(t *testing.T) {
	lay := mustLayout(t, Config{
		Sizes:      []int64{3000, 1000, 37},
		Mixing:     [][]float64{{6, 2, 1}, {2, 3, 1}, {1, 1, 0.6}},
		Edges:      40000,
		Noise:      0.1,
		MasterSeed: 11,
	})
	for _, b := range lay.Blocks() {
		if b.AVS {
			t.Fatalf("block (%d,%d) is not on the ERV path", b.SrcComm, b.DstComm)
		}
	}
	for _, tc := range []struct {
		format gformat.Format
		want   string
	}{
		{gformat.TSV, "5ff1e35a3e1bc7015beb9c2820f310bc3de7af8cef568ea81b595060091dc6ca"},
		{gformat.ADJ6, "7c744f332d36d73cda6bedaa2e18d843a026f0308a16228f694778b8a4c3cdc5"},
	} {
		streamed, st := streamLayout(t, lay, tc.format, 1)
		if got := fmt.Sprintf("%x", sha256.Sum256(streamed)); got != tc.want {
			t.Errorf("%v: sha256 %s (%d edges, %d bytes), want %s", tc.format, got, st.Edges, len(streamed), tc.want)
		}
	}
}

// TestERVBlocksReportAttempts: the attempts an ERV block reports to
// core.Stats are its real ones, duplicates included — per row what
// erv's ScopeAttempts returns on the executor's stream, a count erv's
// TestScopeMatchesReferenceLoop holds to the one-draw-per-attempt loop —
// so the dense 37×37 block, whose heavy rows end on the attempt cap,
// reports more attempts than edges.
func TestERVBlocksReportAttempts(t *testing.T) {
	lay := mustLayout(t, Config{
		Sizes:      []int64{3000, 1000, 37},
		Mixing:     [][]float64{{6, 2, 1}, {2, 3, 1}, {1, 1, 0.6}},
		Edges:      40000,
		MasterSeed: 11,
	})
	_, st := streamLayout(t, lay, gformat.ADJ6, 2)
	var edges, attempts, denseEdges, denseAttempts int64
	for _, b := range lay.Blocks() {
		rows, cols := b.SrcHi-b.SrcLo, b.DstHi-b.DstLo
		g, err := erv.New(erv.Config{NumSrc: rows, NumDst: cols, NumEdges: b.Edges, OutDist: b.OutDist, InDist: b.InDist})
		if err != nil {
			t.Fatal(err)
		}
		var src rng.Source
		for u := range rows {
			src.Reseed(b.Seed, uint64(u))
			dsts, n := g.ScopeAttempts(nil, u, &src)
			edges += int64(len(dsts))
			attempts += n
			if rows == 37 && cols == 37 {
				denseEdges += int64(len(dsts))
				denseAttempts += n
			}
		}
	}
	if st.Edges != edges || st.Attempts != attempts {
		t.Fatalf("stats report %d edges after %d attempts, the blocks' rows drew %d after %d", st.Edges, st.Attempts, edges, attempts)
	}
	if denseAttempts <= denseEdges {
		t.Fatalf("the dense block drew %d edges in %d attempts, want more attempts than edges", denseEdges, denseAttempts)
	}
}

// TestGoldenAVSStreamBytes pins whole-stream bytes of the v1 sampler
// that power-of-two intra blocks draw with (a full descent redrawing a
// uniform at every level), without noise and with it. Communities 1024
// and 256 are sparse power-of-two blocks, 300 takes the rectangle path,
// and the dense 64-vertex block asks its heaviest rows for every cell,
// so some end on the attempt cap (checked below). The digests were
// generated at the commit before power-of-two blocks stopped rebuilding
// their vector before every attempt.
func TestGoldenAVSStreamBytes(t *testing.T) {
	for _, tc := range []struct {
		noise     float64
		tsv, adj6 string
	}{
		{0, "83833cc63fb2fc854759956c80e0c5985188bee9a11cc4447697d092c4a1e8bd", "96ebffdca7ff3f4d7883ebdb0ec2dff8860ac71a2e25ac7f8bf77b06864e940e"},
		{0.1, "eef61a65c09b273c2c9764e0c632adb9a9b870893476527df4a91ae18cfc427d", "ba686e9717e9458189922176d6be17f9448e368b42fd2359fce69e1baba4cdd3"},
	} {
		lay := mustLayout(t, Config{
			Sizes:      []int64{1024, 256, 300, 64},
			Mixing:     [][]float64{{6, 1, 1, 0}, {1, 3, 1, 0}, {1, 1, 2, 0}, {0, 0, 0, 1.5}},
			Edges:      40000,
			Noise:      tc.noise,
			MasterSeed: 5,
		})
		var pow2, capped int
		for _, b := range lay.Blocks() {
			if !b.AVS {
				continue
			}
			pow2++
			if b.SrcHi-b.SrcLo == 64 {
				capped += cappedRows(t, lay, b)
			}
		}
		if pow2 != 3 || capped == 0 {
			t.Fatalf("noise %v: %d power-of-two blocks (want 3), %d dense rows on the attempt cap (want some)", tc.noise, pow2, capped)
		}
		for _, f := range []struct {
			format gformat.Format
			want   string
		}{{gformat.TSV, tc.tsv}, {gformat.ADJ6, tc.adj6}} {
			streamed, st := streamLayout(t, lay, f.format, 1)
			if got := fmt.Sprintf("%x", sha256.Sum256(streamed)); got != f.want {
				t.Errorf("noise %v %v: sha256 %s (%d edges, %d bytes), want %s", tc.noise, f.format, got, st.Edges, len(streamed), f.want)
			}
		}
	}
}

// cappedRows draws block b's rows as the executor does and counts those
// that came back short after exactly the attempt cap, 64·size+1024.
func cappedRows(t *testing.T, lay *Layout, b Block) int {
	t.Helper()
	part, err := lay.OpenPart(b.ID, partition.Range{})
	if err != nil {
		t.Fatal(err)
	}
	scope, err := part.NewScoper(new(avs.DedupSet), nil)
	if err != nil {
		t.Fatal(err)
	}
	var src rng.Source
	n := 0
	for v := part.Lo; v < part.Hi; v++ {
		u := v - part.SrcOff
		src.Reseed(part.Seed, uint64(u))
		dsts, attempts := scope(nil, u, &src)
		if size := (attempts - 1024) / 64; attempts >= 1024 && (attempts-1024)%64 == 0 && int64(len(dsts)) < size {
			n++
		}
	}
	return n
}

// TestLentSetAcrossBlocks: one dedup set lent to every block's scoper,
// row by row in turn across blocks of different NumDst — AVS and ERV
// blocks, dense diagonal blocks on the set's bitmap and sparse
// rectangles on its table — admits exactly what a fresh set per block
// admits, in the same order after the same attempts.
func TestLentSetAcrossBlocks(t *testing.T) {
	lay := mustLayout(t, Config{
		Sizes:      []int64{1024, 300, 5000},
		Mixing:     [][]float64{{8, 0.02, 0.02}, {0.02, 4, 0.02}, {0.02, 0.02, 6}},
		Edges:      100000,
		MasterSeed: 3,
	})
	lent := new(avs.DedupSet)
	type block struct {
		part        core.Part
		shared, own core.Scoper
	}
	var blocks []block
	for id := range lay.NumBlocks() {
		part, err := lay.OpenPart(id, partition.Range{})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := part.NewScoper(lent, nil)
		if err != nil {
			t.Fatal(err)
		}
		own, err := part.NewScoper(new(avs.DedupSet), nil)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block{part, shared, own})
	}
	var src rng.Source
	var edges int64
	for u, more := int64(0), true; more; u++ {
		more = false
		for id, b := range blocks {
			if u >= b.part.Hi-b.part.Lo {
				continue
			}
			more = true
			src.Reseed(b.part.Seed, uint64(u))
			want, wantAttempts := b.own(nil, u, &src)
			src.Reseed(b.part.Seed, uint64(u))
			got, attempts := b.shared(nil, u, &src)
			if !slices.Equal(got, want) || attempts != wantAttempts {
				t.Fatalf("block %d row %d: lent set kept %d of %d attempts, a fresh set %d of %d", id, u, len(got), attempts, len(want), wantAttempts)
			}
			edges += int64(len(got))
		}
	}
	if edges < 90000 {
		t.Fatalf("%d edges drawn of a 100000-edge budget", edges)
	}
}

// TestPeakWorkerBytes: both engines charge each scope's working set to
// the thread's accountant — AVS its vector, ERV its destination vector,
// and each 8 bytes per kept destination — so a community run reports a
// peak: above zero, within that model's bound at the run's largest
// degree and widest vector, and the same at one thread and four, since
// it is the largest charge of any scope whichever thread drew it. One
// layout is a single power-of-two community, an AVS block alone; one
// has rectangles only; one mixes the two.
func TestPeakWorkerBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	three := [][]float64{{6, 1, 1}, {1, 3, 1}, {1, 1, 4}}
	for _, tc := range []struct {
		sizes  []int64
		mixing [][]float64
	}{
		{[]int64{4096}, [][]float64{{1}}},
		{[]int64{1000, 300, 3000}, three},
		{[]int64{1024, 300, 3000}, three},
	} {
		lay := mustLayout(t, Config{
			Sizes:      tc.sizes,
			Mixing:     tc.mixing,
			Edges:      60000,
			Noise:      0.1,
			MasterSeed: 9,
		})
		_, one := streamLayout(t, lay, gformat.ADJ6, 1)
		_, four := streamLayout(t, lay, gformat.ADJ6, 4)
		levels := int64(bits.Len64(uint64(slices.Max(tc.sizes))))
		bound := (levels+1)*16 + one.MaxDegree*memacct.VertexBytes
		if one.PeakWorkerBytes <= 0 || one.PeakWorkerBytes > bound {
			t.Fatalf("sizes %v: peak worker bytes %d, want in (0, %d] at max degree %d", tc.sizes, one.PeakWorkerBytes, bound, one.MaxDegree)
		}
		if four.PeakWorkerBytes != one.PeakWorkerBytes {
			t.Fatalf("sizes %v: peak worker bytes %d at four threads, %d at one", tc.sizes, four.PeakWorkerBytes, one.PeakWorkerBytes)
		}
	}
}

// TestOffsetBlocksThroughGenerateParts: the executor draws a chunk's
// rows one after another into one buffer, so a block's scope is appended
// after rows already offset by DstOff — values past the block's own
// duplicate bitmap. Each block with DstOff ≠ 0, an ERV rectangle and an
// AVS diagonal, run alone through core.GenerateParts, must write what
// its rows drawn one by one into empty buffers and offset write.
func TestOffsetBlocksThroughGenerateParts(t *testing.T) {
	lay := mustLayout(t, Config{
		Sizes:      []int64{300, 2048},
		Mixing:     [][]float64{{2, 3}, {3, 4}},
		Edges:      60000,
		MasterSeed: 13,
	})
	var offset, rect int
	for _, b := range lay.Blocks() {
		if b.DstLo == 0 {
			continue
		}
		offset++
		if !b.AVS {
			rect++
		}
		part, err := lay.OpenPart(b.ID, partition.Range{})
		if err != nil {
			t.Fatal(err)
		}
		scope, err := part.NewScoper(new(avs.DedupSet), nil)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		w, err := gformat.NewWriter(&want, gformat.ADJ6, lay.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		var src rng.Source
		for v := part.Lo; v < part.Hi; v++ {
			u := v - part.SrcOff
			src.Reseed(part.Seed, uint64(u))
			dsts, _ := scope(nil, u, &src)
			for i := range dsts {
				dsts[i] += part.DstOff
			}
			if err := w.WriteScope(v, dsts); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		sinks := func(int, partition.Range) (gformat.Writer, error) {
			return gformat.NewWriter(&got, gformat.ADJ6, lay.NumVertices())
		}
		r := partition.Range{Lo: b.SrcLo, Hi: b.SrcHi}
		st, err := core.GenerateParts(lay, []partition.Range{r}, []int{b.ID}, sinks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || st.Edges == 0 {
			t.Fatalf("block %s (DstOff %d): GenerateParts wrote %d bytes (%d edges), its rows drawn one by one %d", b.Name, part.DstOff, got.Len(), st.Edges, want.Len())
		}
	}
	if offset != 2 || rect != 1 {
		t.Fatalf("%d blocks with DstOff ≠ 0, %d of them rectangles: want 2 and 1", offset, rect)
	}
}
