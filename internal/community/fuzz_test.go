package community

import (
	"testing"
)

// FuzzParseSpec: no bytes handed to -community or a job's community
// field panic the strict decoder or the layout it feeds, and a spec it
// accepts either resolves to a sound layout or is refused by New with an
// error: every block a non-empty rectangle inside the vertex space with
// a positive budget it can hold, the budgets summing to the layout's
// edges (the spec's own count when it gives one), and a plan of one part
// per block, in block order — the same layout every time it resolves.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		`{"sizes":[8,5,8],"mixing":[[4,1,0],[1,2,1],[0,1,3]],"edges":120,"noise":0.1,"master_seed":11}`,
		`{"sizes":[8,5],"mixing":[[4,1],[1,2]],"edges":80,"master_seed":7}`,
		`{"communities":3,"min_size":4,"max_size":64,"mixing":[[1,1,1],[1,1,1],[1,1,1]]}`,
		`{"sizes":[64,96],"mixing":[[0,1],[0,0]],"edge_factor":4,"seed":{"A":0.45,"B":0.15,"C":0.15,"D":0.25}}`,
		`{"sizes":[16,16],"mixing":[[1,0],[0,1]],"allow_duplicates":true,"edges":1000}`,
		// Refused: an unknown key, data after the spec, a ragged or
		// negative matrix, a budget past a block's capacity, sizes past
		// the id space.
		`{"sizes":[4,4],"mixxing":[[0,1],[0,0]]}`,
		`{"sizes":[4],"mixing":[[1]]} {"edges":2}`,
		`{"sizes":[4,4],"mixing":[[1],[1,1]]}`,
		`{"sizes":[4],"mixing":[[-1]]}`,
		`{"sizes":[2],"mixing":[[1]],"edges":5}`,
		`{"sizes":[140737488355328,140737488355328,140737488355328],"mixing":[[1,0,0],[0,1,0],[0,0,1]]}`,
		`{"communities":100000000,"min_size":1,"max_size":1,"mixing":[[1]]}`,
		`{"sizes":[8,8],"mixing":[[1e308,1e308],[1e308,1e308]],"edges":1000000000000,"allow_duplicates":true}`,
		``,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		lay, err := New(cfg)
		if err != nil {
			return
		}
		nv := lay.NumVertices()
		var edges, rows int64
		for i, b := range lay.Blocks() {
			if b.ID != i || b.SrcLo < 0 || b.SrcLo >= b.SrcHi || b.SrcHi > nv || b.DstLo < 0 || b.DstLo >= b.DstHi || b.DstHi > nv {
				t.Fatalf("%s: block %d is %+v in a %d-vertex space", spec, i, b, nv)
			}
			capacity := float64(b.SrcHi-b.SrcLo) * float64(b.DstHi-b.DstLo)
			if b.Edges < 1 || !cfg.AllowDuplicates && float64(b.Edges) > capacity {
				t.Fatalf("%s: block %d holds %d edges in a %v-cell rectangle", spec, i, b.Edges, capacity)
			}
			edges += b.Edges
			rows += b.SrcHi - b.SrcLo
		}
		if edges != lay.TotalEdges() || cfg.Edges > 0 && edges != cfg.Edges || rows != lay.ScopeTotal() {
			t.Fatalf("%s: blocks hold %d edges over %d rows, layout says %d over %d", spec, edges, rows, lay.TotalEdges(), lay.ScopeTotal())
		}
		ranges, ids, err := lay.Plan(0)
		if err != nil || len(ranges) != lay.NumBlocks() || len(ids) != len(ranges) {
			t.Fatalf("%s: plan of %d parts for %d blocks: %v", spec, len(ranges), lay.NumBlocks(), err)
		}
		for i, r := range ranges {
			if b := lay.Blocks()[i]; ids[i] != i || r.Lo != b.SrcLo || r.Hi != b.SrcHi || r.Edges != b.Edges {
				t.Fatalf("%s: part %d (id %d) is %+v, block %+v", spec, i, ids[i], r, b)
			}
		}
		again, err := New(cfg)
		if err != nil || again.Fingerprint() != lay.Fingerprint() {
			t.Fatalf("%s: resolved once, then %v", spec, err)
		}
	})
}
