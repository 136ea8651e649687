package gmark

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// uniformSchema is a 100-vertex, one-predicate schema whose out-degrees
// are uniform over [min, max].
const uniformSchema = `{"name": "uniform", "numVertices": 100, "numEdges": 400,
	"nodeTypes": [{"name": "a", "ratio": 0.5}, {"name": "b", "ratio": 0.5}],
	"edgeTypes": [{"predicate": "p", "srcType": "a", "dstType": "b", "ratio": 1,
		"outDist": {"kind": "uniform", "min": %MIN%, "max": %MAX%}, "inDist": {"kind": "gaussian"}}]}`

// errEnough stops a block the fuzzer has seen enough of.
var errEnough = errors.New("enough edges drawn")

// FuzzParseSchema feeds arbitrary bytes through ParseSchema and Layout,
// neither of which may panic. A schema small enough to draw — at most
// 2^12 vertices and 2^16 edges — has every block drawn through the part
// executor, and every scope must lie inside its block's rectangle with
// no repeated destination. A uniform out-degree ignores the budget, so a
// block stops after 2^16 edges.
func FuzzParseSchema(f *testing.F) {
	for _, name := range []string{"bibliography.json", "socialnetwork.json"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "schemas", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []*Schema{Bibliography(200, 1600), SocialNetwork(300, 2400)} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Two crashes of the uniform out-degree draw: a span of 2^63 degrees
	// (Int63n of a non-positive n) and a degree of 4·10^12 in a 50-column
	// block (a scope buffer of that many destinations).
	for _, minMax := range [][2]string{{"0", "9223372036854775807"}, {"4000000000000", "4000000000000"}} {
		s := bytes.ReplaceAll([]byte(uniformSchema), []byte("%MIN%"), []byte(minMax[0]))
		f.Add(bytes.ReplaceAll(s, []byte("%MAX%"), []byte(minMax[1])))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSchema(bytes.NewReader(data))
		if err != nil {
			return
		}
		l, err := s.Layout(1)
		if err != nil || s.NumVertices > 1<<12 || s.NumEdges > 1<<16 {
			return
		}
		ranges, ids, err := l.Plan(0)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range l.Blocks() {
			var drawn int64
			seen := make(map[int64]bool)
			sinks := core.CallbackSinks(func(src int64, dsts []int64) error {
				if src < b.SrcLo || src >= b.SrcHi {
					t.Fatalf("%s: source %d outside [%d, %d)", b.Name, src, b.SrcLo, b.SrcHi)
				}
				clear(seen)
				for _, d := range dsts {
					if d < b.DstLo || d >= b.DstHi {
						t.Fatalf("%s: destination %d outside [%d, %d)", b.Name, d, b.DstLo, b.DstHi)
					}
					if seen[d] {
						t.Fatalf("%s: duplicate edge (%d, %d)", b.Name, src, d)
					}
					seen[d] = true
				}
				if drawn += int64(len(dsts)); drawn > 1<<16 {
					return errEnough
				}
				return nil
			})
			if _, err := core.GenerateParts(l, ranges[i:i+1], ids[i:i+1], sinks, nil); err != nil && !errors.Is(err, errEnough) {
				t.Fatalf("%s: %v", b.Name, err)
			}
		}
	})
}
