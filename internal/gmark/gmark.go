// Package gmark implements schema-driven rich graph generation
// (Section 6.2): a gMark-style graph configuration — node types with
// ratios, edge predicates with ratios, and per-predicate in-/out-degree
// distributions — is compiled into one ERV community block per
// predicate (one colored rectangle of Figure 7b) and generated at
// TrillionG speed by core's part executor, with the duplicate
// elimination gMark itself lacks.
package gmark

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/erv"
	"repro/internal/rng"
)

// NodeType is one vertex class with its share of the vertex space.
type NodeType struct {
	Name  string  `json:"name"`
	Ratio float64 `json:"ratio"`
}

// DistSpec is the JSON form of a degree distribution.
type DistSpec struct {
	// Kind is "zipfian", "gaussian", "uniform" or "empirical".
	Kind string `json:"kind"`
	// Slope applies to zipfian (negative log-log slope).
	Slope float64 `json:"slope,omitempty"`
	// Min and Max apply to uniform.
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
	// Weights applies to empirical: a frequency table (out side:
	// Weights[d] = share of vertices with degree d; in side: popularity
	// histogram stretched over the destination range).
	Weights []float64 `json:"weights,omitempty"`
}

func (d DistSpec) toERV() (erv.Dist, error) {
	switch d.Kind {
	case "zipfian":
		return erv.Dist{Kind: erv.Zipfian, Slope: d.Slope}, nil
	case "gaussian":
		return erv.Dist{Kind: erv.Gaussian}, nil
	case "uniform":
		return erv.Dist{Kind: erv.Uniform, Min: d.Min, Max: d.Max}, nil
	case "empirical":
		return erv.Dist{Kind: erv.Empirical, Weights: d.Weights}, nil
	default:
		return erv.Dist{}, fmt.Errorf("gmark: unknown distribution kind %q", d.Kind)
	}
}

// EdgeType is one predicate: edges from SrcType nodes to DstType nodes
// taking Ratio of the total edge budget, with the given degree
// distributions (the rows of Figure 7a's third table).
type EdgeType struct {
	Predicate string   `json:"predicate"`
	SrcType   string   `json:"srcType"`
	DstType   string   `json:"dstType"`
	Ratio     float64  `json:"ratio"`
	OutDist   DistSpec `json:"outDist"`
	InDist    DistSpec `json:"inDist"`
}

// Schema is a full graph configuration.
type Schema struct {
	Name        string     `json:"name"`
	NumVertices int64      `json:"numVertices"`
	NumEdges    int64      `json:"numEdges"`
	NodeTypes   []NodeType `json:"nodeTypes"`
	EdgeTypes   []EdgeType `json:"edgeTypes"`
}

// ParseSchema reads a JSON schema.
func ParseSchema(r io.Reader) (*Schema, error) {
	var s Schema
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("gmark: parsing schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural consistency.
func (s *Schema) Validate() error {
	if s.NumVertices < 1 || s.NumEdges < 1 {
		return fmt.Errorf("gmark: schema needs positive vertex and edge counts")
	}
	if len(s.NodeTypes) == 0 || len(s.EdgeTypes) == 0 {
		return fmt.Errorf("gmark: schema needs node types and edge types")
	}
	var vr float64
	seen := map[string]bool{}
	for _, nt := range s.NodeTypes {
		if nt.Name == "" || nt.Ratio <= 0 {
			return fmt.Errorf("gmark: node type %+v invalid", nt)
		}
		if seen[nt.Name] {
			return fmt.Errorf("gmark: duplicate node type %q", nt.Name)
		}
		seen[nt.Name] = true
		vr += nt.Ratio
	}
	if math.Abs(vr-1) > 1e-9 {
		return fmt.Errorf("gmark: node-type ratios sum to %v, want 1", vr)
	}
	var er float64
	for _, et := range s.EdgeTypes {
		if et.Predicate == "" {
			return fmt.Errorf("gmark: edge type missing predicate")
		}
		if !seen[et.SrcType] {
			return fmt.Errorf("gmark: predicate %q has unknown source type %q", et.Predicate, et.SrcType)
		}
		if !seen[et.DstType] {
			return fmt.Errorf("gmark: predicate %q has unknown target type %q", et.Predicate, et.DstType)
		}
		if et.Ratio <= 0 {
			return fmt.Errorf("gmark: predicate %q ratio %v invalid", et.Predicate, et.Ratio)
		}
		if _, err := et.OutDist.toERV(); err != nil {
			return err
		}
		if _, err := et.InDist.toERV(); err != nil {
			return err
		}
		er += et.Ratio
	}
	if er > 1+1e-9 {
		return fmt.Errorf("gmark: edge-type ratios sum to %v > 1", er)
	}
	return nil
}

// VertexRange is the global ID range [Lo, Hi) of a node type.
type VertexRange struct {
	Type   string
	Lo, Hi int64
}

// Ranges lays node types out contiguously over [0, NumVertices).
func (s *Schema) Ranges() []VertexRange {
	out := make([]VertexRange, 0, len(s.NodeTypes))
	var lo int64
	acc := 0.0
	for i, nt := range s.NodeTypes {
		acc += nt.Ratio
		hi := int64(math.Round(acc * float64(s.NumVertices)))
		if i == len(s.NodeTypes)-1 {
			hi = s.NumVertices
		}
		if hi < lo+1 {
			hi = lo + 1 // every declared type gets at least one vertex
		}
		out = append(out, VertexRange{Type: nt.Name, Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// Predicates returns the schema's distinct predicates in schema order —
// the order Generate emits them in, for printing its counts.
func (s *Schema) Predicates() []string {
	var out []string
	for _, et := range s.EdgeTypes {
		if !slices.Contains(out, et.Predicate) {
			out = append(out, et.Predicate)
		}
	}
	return out
}

// Layout compiles the schema into community blocks, one colored
// rectangle of Figure 7b each: node types are the communities, laid out
// by Ranges, and edge type i is block i — source-type rows by target-type
// columns, max(1, round(ratio·|E|)) edges, seed Mix64(masterSeed,
// i+0x9D), the schema's own distributions, always ERV (so a same-type
// predicate such as cites stays off AVS), named by its predicate.
func (s *Schema) Layout(masterSeed uint64) (*community.Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	ranges := s.Ranges()
	types := make(map[string]int, len(ranges))
	sizes := make([]int64, len(ranges))
	for i, r := range ranges {
		types[r.Type], sizes[i] = i, r.Hi-r.Lo
	}
	blocks := make([]community.Block, len(s.EdgeTypes))
	for i, et := range s.EdgeTypes {
		src, dst := types[et.SrcType], types[et.DstType]
		out, _ := et.OutDist.toERV() // kinds checked by Validate
		in, _ := et.InDist.toERV()
		blocks[i] = community.Block{
			SrcComm: src, DstComm: dst, Intra: src == dst,
			SrcLo: ranges[src].Lo, SrcHi: ranges[src].Hi, DstLo: ranges[dst].Lo, DstHi: ranges[dst].Hi,
			Edges: max(1, int64(math.Round(et.Ratio*float64(s.NumEdges)))),
			Seed:  rng.Mix64(masterSeed, uint64(i)+0x9D),
			Name:  et.Predicate, OutDist: out, InDist: in,
		}
	}
	spec, err := json.Marshal(struct {
		Schema     *Schema `json:"schema"`
		MasterSeed uint64  `json:"master_seed"`
	}{s, masterSeed})
	if err != nil {
		return nil, fmt.Errorf("gmark: %w", err)
	}
	l, err := community.Compose(community.Config{Sizes: sizes, MasterSeed: masterSeed}, blocks, "gmark/v1 "+string(spec), json.RawMessage(spec))
	if err != nil {
		return nil, fmt.Errorf("gmark: %w", err)
	}
	return l, nil
}

// Generate produces the rich graph: the layout's parts one at a time, in
// part order, through the part executor. emit receives every non-empty
// scope with its predicate, in global IDs. Returns per-predicate counts.
func (s *Schema) Generate(masterSeed uint64, emit func(predicate string, src int64, dsts []int64) error) (map[string]int64, error) {
	l, err := s.Layout(masterSeed)
	if err != nil {
		return nil, err
	}
	ranges, ids, _ := l.Plan(0) // 0 asks for the layout's own parts: it cannot fail
	counts := make(map[string]int64)
	for i, b := range l.Blocks() {
		sinks := core.CallbackSinks(func(src int64, dsts []int64) error {
			if emit == nil || len(dsts) == 0 {
				return nil
			}
			return emit(b.Name, src, dsts)
		})
		st, err := core.GenerateParts(l, ranges[i:i+1], ids[i:i+1], sinks, nil)
		if counts[b.Name] += st.Edges; err != nil {
			return counts, err
		}
	}
	return counts, nil
}

// SocialNetwork returns an LDBC-SNB-flavoured schema: persons follow
// each other (Zipfian both ways — celebrities exist on both axes),
// author posts (Gaussian out: people post at similar rates; Zipfian in
// is meaningless for creation so it is uniform-ish via Gaussian), and
// like posts (Gaussian out, Zipfian in — viral posts). It demonstrates
// that the ERV machinery covers same-type edges (person→person) and
// several distribution mixes beyond the bibliography example.
func SocialNetwork(numVertices, numEdges int64) *Schema {
	return &Schema{
		Name:        "social-network",
		NumVertices: numVertices,
		NumEdges:    numEdges,
		NodeTypes: []NodeType{
			{Name: "person", Ratio: 0.4},
			{Name: "post", Ratio: 0.6},
		},
		EdgeTypes: []EdgeType{
			{
				Predicate: "follows", SrcType: "person", DstType: "person", Ratio: 0.4,
				OutDist: DistSpec{Kind: "zipfian", Slope: -1.3},
				InDist:  DistSpec{Kind: "zipfian", Slope: -1.8},
			},
			{
				Predicate: "created", SrcType: "person", DstType: "post", Ratio: 0.3,
				OutDist: DistSpec{Kind: "gaussian"},
				InDist:  DistSpec{Kind: "gaussian"},
			},
			{
				Predicate: "likes", SrcType: "person", DstType: "post", Ratio: 0.3,
				OutDist: DistSpec{Kind: "gaussian"},
				InDist:  DistSpec{Kind: "zipfian", Slope: -1.5},
			},
		},
	}
}

// Bibliography returns the paper's running example (Figure 7): a
// bibliographical graph with researchers, papers, journals and
// conferences, where authorship has Zipfian out-degrees (a few prolific
// researchers) and Gaussian in-degrees (papers have a few authors each).
func Bibliography(numVertices, numEdges int64) *Schema {
	return &Schema{
		Name:        "bibliography",
		NumVertices: numVertices,
		NumEdges:    numEdges,
		NodeTypes: []NodeType{
			{Name: "researcher", Ratio: 0.5},
			{Name: "paper", Ratio: 0.3},
			{Name: "journal", Ratio: 0.1},
			{Name: "conference", Ratio: 0.1},
		},
		EdgeTypes: []EdgeType{
			{
				Predicate: "author", SrcType: "researcher", DstType: "paper", Ratio: 0.5,
				OutDist: DistSpec{Kind: "zipfian", Slope: -1.662},
				InDist:  DistSpec{Kind: "gaussian"},
			},
			{
				Predicate: "publishedIn", SrcType: "paper", DstType: "conference", Ratio: 0.3,
				OutDist: DistSpec{Kind: "uniform", Min: 1, Max: 1},
				InDist:  DistSpec{Kind: "zipfian", Slope: -1.2},
			},
			{
				Predicate: "cites", SrcType: "paper", DstType: "paper", Ratio: 0.2,
				OutDist: DistSpec{Kind: "gaussian"},
				InDist:  DistSpec{Kind: "zipfian", Slope: -1.5},
			},
		},
	}
}
