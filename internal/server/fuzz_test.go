package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpecCompile: whatever bytes arrive at POST /v1/jobs, the strict
// decode plus compile never panics, and a spec it accepts resolves to a
// sane job: a range inside the vertex space, a non-negative cost, and a
// part schedule of non-empty, in-order parts — contiguous over [lo, hi)
// for the classic shape — covering exactly scopes_total rows.
func FuzzJobSpecCompile(f *testing.F) {
	for _, seed := range []string{
		// docs/SERVER.md's examples.
		`{"scale":20,"master_seed":42,"format":"tsv"}`,
		`{"scale":24,"format":"adj6","class":"batch"}`,
		`{"scale":12,"master_seed":42,"noise":0.1,"format":"tsv","workers":3,"lo":17,"hi":900}`,
		`{"scale":10,"edge_factor":4,"seed":[0.25,0.25,0.25,0.25],"allow_duplicates":true}`,
		// community_test.go's specs.
		`{"shape":"bipartite","rows":64,"cols":96,"edge_factor":4,"master_seed":9,"format":"tsv"}`,
		`{"shape":"community","format":"adj6","community":{"sizes":[8,5,8],"mixing":[[4,1,0],[1,2,1],[0,1,3]],"edges":120,"noise":0.1,"master_seed":11}}`,
		`{"shape":"community","format":"tsv","workers":2,"community":{"sizes":[8,5],"mixing":[[4,1],[1,2]],"edges":80,"master_seed":7}}`,
		`{"shape":"community","community":{"communities":3,"min_size":4,"max_size":64,"mixing":[[1,1,1],[1,1,1],[1,1,1]]}}`,
		`{"shape":"community","community":{"sizes":[4,4],"mixxing":[[0,1],[0,0]]}}`,
		`{"shape":"torus","scale":10}`,
		// Found by this fuzzer: an edge count that wraps, a community
		// count that allocates before the mixing matrix is checked, mixing
		// weights that sum to +Inf.
		`{"scale":12,"edge_factor":4611686018427387904}`,
		`{"shape":"community","community":{"communities":100000000,"min_size":1,"max_size":1,"mixing":[[1]]}}`,
		`{"shape":"community","community":{"sizes":[8,8],"mixing":[[1e308,1e308],[1e308,1e308]],"edges":1000000000000,"allow_duplicates":true}}`,
	} {
		f.Add([]byte(seed))
	}
	lim := specLimits{maxScale: 12, maxWorkersPerJob: 3}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		c, err := spec.compile(lim)
		if err != nil {
			return
		}
		if nv := c.src.NumVertices(); c.lo < 0 || c.hi < c.lo || c.hi > nv || nv > 1<<lim.maxScale {
			t.Fatalf("range [%d, %d) in a %d-vertex space (limit 2^%d)", c.lo, c.hi, nv, lim.maxScale)
		}
		if c.cost < 0 || c.scopesTotal < 0 || c.workers < 0 || c.workers > lim.maxWorkersPerJob {
			t.Fatalf("cost %d, scopes_total %d, workers %d", c.cost, c.scopesTotal, c.workers)
		}
		next := c.parts()
		prevID, at, rows := -1, c.lo, int64(0)
		for {
			id, r, ok := next()
			if !ok {
				break
			}
			if id <= prevID || r.Hi <= r.Lo || r.Lo < 0 || r.Hi > c.hi {
				t.Fatalf("part %d = [%d, %d) after part %d", id, r.Lo, r.Hi, prevID)
			}
			if c.scale > 0 && r.Lo != at {
				t.Fatalf("classic part %d starts at %d, previous ended at %d", id, r.Lo, at)
			}
			prevID, at = id, r.Hi
			rows += r.Hi - r.Lo
		}
		if rows != c.scopesTotal || (c.scale > 0 && at != c.hi) {
			t.Fatalf("schedule covers %d rows ending at %d, want %d rows ending at %d", rows, at, c.scopesTotal, c.hi)
		}
		if _, _, ok := next(); ok {
			t.Fatal("schedule yields a part after its end")
		}
	})
}
