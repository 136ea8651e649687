package gmark

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestBibliographyValidates(t *testing.T) {
	s := Bibliography(10000, 100000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSchemas(t *testing.T) {
	base := func() *Schema { return Bibliography(1000, 10000) }

	s := base()
	s.NumVertices = 0
	if err := s.Validate(); err == nil {
		t.Fatal("expected counts error")
	}
	s = base()
	s.NodeTypes[0].Ratio = 0.9 // ratios no longer sum to 1
	if err := s.Validate(); err == nil {
		t.Fatal("expected ratio-sum error")
	}
	s = base()
	s.EdgeTypes[0].SrcType = "ghost"
	if err := s.Validate(); err == nil {
		t.Fatal("expected unknown-type error")
	}
	s = base()
	s.EdgeTypes[0].Ratio = 0.9 // predicate ratios exceed 1
	if err := s.Validate(); err == nil {
		t.Fatal("expected predicate-ratio error")
	}
	s = base()
	s.EdgeTypes[0].OutDist.Kind = "pareto"
	if err := s.Validate(); err == nil {
		t.Fatal("expected distribution-kind error")
	}
	s = base()
	s.NodeTypes = append(s.NodeTypes, NodeType{Name: "researcher", Ratio: 0.1})
	if err := s.Validate(); err == nil {
		t.Fatal("expected duplicate-type error")
	}
}

func TestParseSchemaRoundTrip(t *testing.T) {
	s := Bibliography(5000, 40000)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSchema(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != s.Name || len(parsed.EdgeTypes) != len(s.EdgeTypes) {
		t.Fatalf("round trip lost data: %+v", parsed)
	}
}

func TestParseSchemaRejectsGarbage(t *testing.T) {
	if _, err := ParseSchema(strings.NewReader(`{"numVertices": "many"}`)); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParseSchema(strings.NewReader(`{"unknownField": 1}`)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

func TestRangesPartitionVertexSpace(t *testing.T) {
	s := Bibliography(10000, 100000)
	rs := s.Ranges()
	if len(rs) != 4 {
		t.Fatalf("ranges %d", len(rs))
	}
	var next int64
	for _, r := range rs {
		if r.Lo != next || r.Hi <= r.Lo {
			t.Fatalf("bad range %+v (next %d)", r, next)
		}
		next = r.Hi
	}
	if next != 10000 {
		t.Fatalf("coverage ends at %d", next)
	}
	if rs[0].Hi-rs[0].Lo != 5000 {
		t.Fatalf("researcher range %+v, want half the space", rs[0])
	}
}

// TestGenerateRespectsTypesAndBudgets: every emitted edge connects the
// declared types, and per-predicate counts approximate their budgets.
func TestGenerateRespectsTypesAndBudgets(t *testing.T) {
	s := Bibliography(8192, 1<<16)
	ranges := make(map[string]VertexRange)
	for _, r := range s.Ranges() {
		ranges[r.Type] = r
	}
	byPred := make(map[string]*EdgeType)
	for i := range s.EdgeTypes {
		byPred[s.EdgeTypes[i].Predicate] = &s.EdgeTypes[i]
	}
	counts, err := s.Generate(21, func(pred string, src int64, dsts []int64) error {
		et := byPred[pred]
		if et == nil {
			t.Fatalf("unknown predicate %q", pred)
		}
		sr, dr := ranges[et.SrcType], ranges[et.DstType]
		if src < sr.Lo || src >= sr.Hi {
			t.Fatalf("%s: source %d outside %s range %+v", pred, src, et.SrcType, sr)
		}
		for _, d := range dsts {
			if d < dr.Lo || d >= dr.Hi {
				t.Fatalf("%s: destination %d outside %s range %+v", pred, d, et.DstType, dr)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// author: 50% of |E| (stochastic); publishedIn: exactly one per
	// paper (uniform 1..1) — budget-independent; cites: 20%.
	author := float64(counts["author"])
	if math.Abs(author-0.5*float64(s.NumEdges)) > 0.05*0.5*float64(s.NumEdges) {
		t.Fatalf("author edges %v, want ≈ %v", author, 0.5*float64(s.NumEdges))
	}
	papers := ranges["paper"].Hi - ranges["paper"].Lo
	if counts["publishedIn"] != papers {
		t.Fatalf("publishedIn %d, want one per paper (%d)", counts["publishedIn"], papers)
	}
}

// TestGenerateFigure10Shape: the author predicate's out-degrees are
// heavy-tailed, its in-degrees Gaussian — the Figure 10 plots.
func TestGenerateFigure10Shape(t *testing.T) {
	s := Bibliography(16384, 1<<17)
	counter := stats.NewDegreeCounter()
	if _, err := s.Generate(5, func(pred string, src int64, dsts []int64) error {
		if pred == "author" {
			counter.AddScope(src, dsts)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sk := stats.Skewness(counter.OutDegrees()); sk < 1 {
		t.Fatalf("author out-degree skewness %v; expected Zipfian tail", sk)
	}
	// The in-degree mean is ~13, so integer discreteness alone costs
	// ~0.07 of KS against the continuous normal; 0.12 still separates
	// cleanly from any heavy tail, and symmetry pins the shape.
	in := counter.InDegrees()
	if ks := stats.KSAgainstNormal(in); ks > 0.12 {
		t.Fatalf("author in-degree KS vs normal %v", ks)
	}
	if sk := stats.Skewness(in); math.Abs(sk) > 0.4 {
		t.Fatalf("author in-degree skewness %v; expected symmetric", sk)
	}
}

// TestGenerateDeterministic: two runs of one (schema, seed) emit the
// same scopes in the same order, and those are the scopes PR 17's
// parent emitted (digest generated there): the ERV path's byte golden.
func TestGenerateDeterministic(t *testing.T) {
	const want = "b65ab2518067618c9d881c1b39fbcbc1e1d15531b92c2f1b9342e1bc039e9ee0"
	s := Bibliography(4096, 1<<14)
	for run := 0; run < 2; run++ {
		h := sha256.New()
		if _, err := s.Generate(3, func(pred string, src int64, dsts []int64) error {
			fmt.Fprintln(h, pred, src, dsts)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Fatalf("run %d: sha256 %s, want %s", run, got, want)
		}
	}
}

// TestNoDuplicateEdgesPerScope: the Section 6.2 claim — TrillionG
// eliminates the duplicate edges gMark generates.
func TestNoDuplicateEdgesPerScope(t *testing.T) {
	s := Bibliography(2048, 1<<14)
	if _, err := s.Generate(7, func(pred string, src int64, dsts []int64) error {
		seen := make(map[int64]bool, len(dsts))
		for _, d := range dsts {
			if seen[d] {
				t.Fatalf("%s: duplicate edge (%d, %d)", pred, src, d)
			}
			seen[d] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSocialNetworkSchema: the second built-in schema validates,
// generates, and shows the declared shapes: follows is heavy-tailed on
// both axes; likes concentrate on viral posts.
func TestSocialNetworkSchema(t *testing.T) {
	s := SocialNetwork(16384, 1<<17)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	follows := stats.NewDegreeCounter()
	likes := stats.NewDegreeCounter()
	counts, err := s.Generate(13, func(pred string, src int64, dsts []int64) error {
		switch pred {
		case "follows":
			follows.AddScope(src, dsts)
		case "likes":
			likes.AddScope(src, dsts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts["follows"] == 0 || counts["created"] == 0 || counts["likes"] == 0 {
		t.Fatalf("missing predicates: %v", counts)
	}
	if sk := stats.Skewness(follows.OutDegrees()); sk < 1 {
		t.Fatalf("follows out-degree skewness %v; expected heavy tail", sk)
	}
	if sk := stats.Skewness(follows.InDegrees()); sk < 1 {
		t.Fatalf("follows in-degree skewness %v; expected heavy tail", sk)
	}
	if sk := stats.Skewness(likes.InDegrees()); sk < 1 {
		t.Fatalf("likes in-degree skewness %v; expected viral posts", sk)
	}
	if sk := stats.Skewness(likes.OutDegrees()); math.Abs(sk) > 0.5 {
		t.Fatalf("likes out-degree skewness %v; expected Gaussian", sk)
	}
}

// TestEmpiricalSchema: a data-dictionary distribution round-trips
// through JSON and generates degrees drawn from the table.
func TestEmpiricalSchema(t *testing.T) {
	raw := `{
		"name": "dictionary",
		"numVertices": 2000,
		"numEdges": 4000,
		"nodeTypes": [
			{"name": "user", "ratio": 0.5},
			{"name": "item", "ratio": 0.5}
		],
		"edgeTypes": [{
			"predicate": "bought",
			"srcType": "user", "dstType": "item", "ratio": 1.0,
			"outDist": {"kind": "empirical", "weights": [0, 0, 7, 0, 3]},
			"inDist": {"kind": "empirical", "weights": [9, 1]}
		}]
	}`
	s, err := ParseSchema(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	degrees := make(map[int]int)
	var firstHalf, total int64
	if _, err := s.Generate(5, func(pred string, src int64, dsts []int64) error {
		degrees[len(dsts)]++
		for _, d := range dsts {
			// Item range is [1000, 2000); first popularity bucket covers
			// its first half.
			if d < 1500 {
				firstHalf++
			}
			total++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for d := range degrees {
		if d != 2 && d != 4 {
			t.Fatalf("degree %d generated; dictionary allows only 2 and 4", d)
		}
	}
	ratio := float64(degrees[2]) / float64(degrees[4])
	if math.Abs(ratio-7.0/3) > 0.5 {
		t.Fatalf("degree ratio %v, want ≈ 7/3", ratio)
	}
	if frac := float64(firstHalf) / float64(total); math.Abs(frac-0.9) > 0.03 {
		t.Fatalf("first-bucket mass %v, want ≈ 0.9", frac)
	}
}
