package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gformat"
	"repro/internal/telemetry"
)

// TestGenerateObservedCountersMatchStats: the registry's totals must
// agree exactly with the Stats the run returns — the property that
// lets a consumer report from the registry alone.
func TestGenerateObservedCountersMatchStats(t *testing.T) {
	tel := telemetry.NewRegistry()
	cfg := DefaultConfig(10)
	cfg.Workers = 3
	st, err := GenerateObserved(cfg, DiscardSinks(gformat.ADJ6), tel)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.CounterValue(MetricEdges); got != st.Edges {
		t.Fatalf("edges counter %d, stats %d", got, st.Edges)
	}
	if got := tel.CounterValue(MetricAttempts); got != st.Attempts {
		t.Fatalf("attempts counter %d, stats %d", got, st.Attempts)
	}
	if got := tel.CounterValue(MetricScopes); got != cfg.NumVertices() {
		t.Fatalf("scopes counter %d, want %d", got, cfg.NumVertices())
	}
	if got := tel.CounterValue(MetricBytes); got != st.BytesWritten {
		t.Fatalf("bytes counter %d, stats %d", got, st.BytesWritten)
	}
	if st.Scopes != cfg.NumVertices() {
		t.Fatalf("stats count %d scopes, want %d", st.Scopes, cfg.NumVertices())
	}

	// Stage accounting: plan ran once, and the recvec-build, draw and
	// write stages saw one observation per worker (each part builds its
	// own generator in its own goroutine) with the full scope/edge mass.
	if s := tel.StageSnapshot(StagePlan); s.Calls != 1 || s.Items != 3 {
		t.Fatalf("plan stage %+v", s)
	}
	if s := tel.StageSnapshot(StageRecvecBuild); s.Calls != 3 || s.Items != 3 {
		t.Fatalf("recvec stage %+v", s)
	}
	if s := tel.StageSnapshot(StageSinkWrite); s.Calls != 3 || s.Items != st.Edges {
		t.Fatalf("sink stage %+v edges %d", s, st.Edges)
	}
	if s := tel.StageSnapshot(StageScopeDraw); s.Items != cfg.NumVertices() {
		t.Fatalf("draw stage %+v", s)
	}
	if rg := tel.RateGauge(MetricEdgesPerSec, 0); rg.Total() != st.Edges {
		t.Fatalf("rate gauge total %d, stats %d", rg.Total(), st.Edges)
	}
}

// TestGenerateObservedBitIdentical: instrumentation must not perturb
// the generated graph.
func TestGenerateObservedBitIdentical(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	collect := func(tel *telemetry.Registry) map[int64][]int64 {
		var mu sync.Mutex
		got := make(map[int64][]int64)
		sinks := CallbackSinks(func(src int64, dsts []int64) error {
			mu.Lock()
			got[src] = append([]int64(nil), dsts...)
			mu.Unlock()
			return nil
		})
		if _, err := GenerateObserved(cfg, sinks, tel); err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain := collect(nil)
	observed := collect(telemetry.NewRegistry())
	if len(plain) != len(observed) {
		t.Fatalf("scope counts differ: %d vs %d", len(plain), len(observed))
	}
	for src, dsts := range plain {
		o := observed[src]
		if len(o) != len(dsts) {
			t.Fatalf("scope %d length differs", src)
		}
		for i := range dsts {
			if dsts[i] != o[i] {
				t.Fatalf("scope %d differs at %d", src, i)
			}
		}
	}
}

// TestObservedSinksSharedRegistry: two sequential runs into one
// registry accumulate, they do not reset — the contract live servers
// rely on.
func TestObservedSinksSharedRegistry(t *testing.T) {
	tel := telemetry.NewRegistry()
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	st1, err := GenerateObserved(cfg, DiscardSinks(gformat.TSV), tel)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := GenerateObserved(cfg, DiscardSinks(gformat.TSV), tel)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.CounterValue(MetricEdges); got != st1.Edges+st2.Edges {
		t.Fatalf("edge counter %d after two runs, want %d", got, st1.Edges+st2.Edges)
	}
	if got := tel.CounterValue(MetricBytes); got != st1.BytesWritten+st2.BytesWritten {
		t.Fatalf("byte counter %d, want %d", got, st1.BytesWritten+st2.BytesWritten)
	}
}

// TestObservabilityDocListsEveryCoreMetric diffs the core.* table of
// docs/OBSERVABILITY.md against the Stage* and Metric* constants of
// observe.go, one metric per row: a metric added, renamed or retired
// without its row — or a retired row left behind — fails here.
func TestObservabilityDocListsEveryCoreMetric(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "observe.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	code := map[string]bool{} // name → is a stage
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range spec.Names {
			stage := strings.HasPrefix(name.Name, "Stage")
			if stage || strings.HasPrefix(name.Name, "Metric") {
				v, err := strconv.Unquote(spec.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				code[v] = stage
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
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`core.") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		documented[name] = true
		stage, ok := code[name]
		if !ok {
			t.Errorf("docs/OBSERVABILITY.md lists %s, which observe.go does not define", name)
			continue
		}
		if kind := strings.TrimSpace(cells[2]); (kind == "stage") != stage {
			t.Errorf("docs/OBSERVABILITY.md gives %s the kind %q", name, kind)
		}
	}
	for name := range code {
		if !documented[name] {
			t.Errorf("observe.go defines %s, which docs/OBSERVABILITY.md does not list", name)
		}
	}
	if len(code) == 0 {
		t.Fatal("no Stage* or Metric* constants found in observe.go")
	}
}
