package avs

// Benchmarks of the in-scope dedup structures (DESIGN.md §5), each
// filling scope after scope of `degree` destinations of a 2^18-vertex
// graph (and of a 2^25-vertex one for the tiers) with reused storage,
// as a warmed-up worker does: the two tiers of DedupSet, by Insert and
// by InsertLanes, each scope begun and ended as the scope loops do,
// against a Go map and against the sorted slice that used to serve
// sizes ≤ 48. Every scope takes fresh keys from a
// pool far larger than one scope, so the branch predictor cannot learn
// a scope's collisions as it could when each degree reused one key set.
// They report ns/insert. Run with `go test -bench=Dedup ./internal/avs/`.

import (
	"fmt"
	"testing"

	"repro/internal/recvec"
	"repro/internal/rng"
)

// sortedInsert is the retired small tier: binary search and memmove.
func sortedInsert(s []int64, v int64) ([]int64, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == v {
		return s, false
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = v
	return s, true
}

func BenchmarkDedup(b *testing.B) {
	src := rng.New(1)
	// newKeys returns a source of scopes' keys below nv: each call
	// returns the next degree of them, cycling through a pool of 2^17.
	newKeys := func(nv int64) func(degree int) []int64 {
		pool := make([]int64, 1<<17)
		for j := range pool {
			pool[j] = src.Int63n(nv)
		}
		off := 0
		return func(degree int) []int64 {
			if off+degree > len(pool) {
				off = 0
			}
			off += degree
			return pool[off-degree : off]
		}
	}
	keys, wideKeys := newKeys(1<<18), newKeys(1<<25)
	perInsert := func(b *testing.B, degree int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*degree), "ns/insert")
	}
	var sink int
	for _, degree := range []int{1, 4, 8, 16, 32, 512, 30000} {
		d := int64(degree)
		// A huge |V| rules the bitmap out; |V| = 2^18 with a d̂_max of
		// |V|/64 selects it whatever the degree, as for every scope of
		// the batch-sparse graph. At |V| = 2^25, past the cap on a
		// generator's shared bitmap, a hub-sized Begin forces the bitmap:
		// what the cap spares small scopes.
		for _, tc := range []struct {
			name            string
			keys            func(int) []int64
			size, nv, reach int64
		}{
			{"table", keys, d, 1 << 40, d},
			{"bitmap", keys, d, 1 << 18, 1 << 12},
			{"table-nv25", wideKeys, d, 1 << 40, d},
			{"bitmap-nv25", wideKeys, max(d, 1<<19), 1 << 25, d},
		} {
			b.Run(fmt.Sprintf("%s/degree=%d", tc.name, degree), func(b *testing.B) {
				var s DedupSet
				dsts := make([]int64, 0, degree)
				for i := 0; i < b.N; i++ {
					s.Begin(tc.size, tc.nv, tc.reach, true)
					dsts = dsts[:0]
					for _, v := range tc.keys(degree) {
						if s.Insert(v) {
							dsts = append(dsts, v)
						}
					}
					s.End(dsts)
					sink += len(dsts)
				}
				perInsert(b, degree)
			})
			// The same inserts as the scope loops make them: InsertLanes
			// per batch of up to WideLanes draws, appending to a buffer
			// grown to the degree.
			b.Run(fmt.Sprintf("lanes/%s/degree=%d", tc.name, degree), func(b *testing.B) {
				var s DedupSet
				dsts := make([]int64, 0, degree)
				for i := 0; i < b.N; i++ {
					s.Begin(tc.size, tc.nv, tc.reach, true)
					dsts = dsts[:0]
					vals := tc.keys(degree)
					for j := 0; j < len(vals); j += recvec.WideLanes {
						dsts = s.InsertLanes(vals[j:min(j+recvec.WideLanes, len(vals))], dsts)
					}
					s.End(dsts)
					sink += len(dsts)
				}
				perInsert(b, degree)
			})
		}
		if degree <= 512 { // quadratic beyond
			b.Run(fmt.Sprintf("sorted/degree=%d", degree), func(b *testing.B) {
				var s []int64
				for i := 0; i < b.N; i++ {
					s = s[:0]
					for _, v := range keys(degree) {
						var fresh bool
						if s, fresh = sortedInsert(s, v); fresh {
							sink++
						}
					}
				}
				perInsert(b, degree)
			})
		}
		b.Run(fmt.Sprintf("map/degree=%d", degree), func(b *testing.B) {
			m := make(map[int64]struct{}, degree)
			for i := 0; i < b.N; i++ {
				clear(m)
				for _, v := range keys(degree) {
					if _, dup := m[v]; !dup {
						m[v] = struct{}{}
						sink++
					}
				}
			}
			perInsert(b, degree)
		})
	}
	dedupSink = sink
}

// dedupSink keeps the benchmarks' results live.
var dedupSink int
