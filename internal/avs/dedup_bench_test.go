package avs

// Benchmarks of the in-scope dedup structures (DESIGN.md §5), each
// filling one scope of `degree` distinct destinations of a 2^18-vertex
// graph with reused storage, as a warmed-up worker does: the two tiers
// of DedupSet against a Go map and against the sorted slice that used
// to serve sizes ≤ 48. Run with `go test -bench=Dedup ./internal/avs/`.

import (
	"fmt"
	"testing"

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
	const nv = 1 << 18
	for _, degree := range []int{8, 32, 512, 30000} {
		src := rng.New(1)
		vals := make([]int64, degree)
		for j := range vals {
			vals[j] = src.Int63n(nv)
		}
		var sink int
		// A huge |V| rules the bitmap out; |V| = 2^18 with a hub-sized
		// size forces it whatever the degree.
		for _, tc := range []struct {
			name     string
			size, nv int64
		}{
			{"table", int64(degree), 1 << 40},
			{"bitmap", nv / 64, nv},
		} {
			b.Run(fmt.Sprintf("%s/degree=%d", tc.name, degree), func(b *testing.B) {
				var s DedupSet
				for i := 0; i < b.N; i++ {
					s.Begin(tc.size, tc.nv, true)
					for _, v := range vals {
						if s.Insert(v) {
							sink++
						}
					}
				}
			})
		}
		if degree <= 512 { // quadratic beyond
			b.Run(fmt.Sprintf("sorted/degree=%d", degree), func(b *testing.B) {
				var s []int64
				for i := 0; i < b.N; i++ {
					s = s[:0]
					for _, v := range vals {
						var fresh bool
						if s, fresh = sortedInsert(s, v); fresh {
							sink++
						}
					}
				}
			})
		}
		b.Run(fmt.Sprintf("map/degree=%d", degree), func(b *testing.B) {
			m := make(map[int64]struct{}, degree)
			for i := 0; i < b.N; i++ {
				clear(m)
				for _, v := range vals {
					if _, dup := m[v]; !dup {
						m[v] = struct{}{}
						sink++
					}
				}
			}
		})
	}
}
