package avs

import "math/bits"

// DedupSet is the in-scope duplicate filter of both scope loops,
// ScopeWithSize here and erv.Scope. A scope's size is known before its
// first draw, so Begin picks the structure up front and no scope ever
// migrates between them:
//
//   - a bitmap of |V| bits when |V| ≤ 64·size, i.e. when it is no larger
//     than the 8·size bytes of destinations themselves (hub rows);
//   - otherwise an open-addressing table of v+1 (0 = empty) with a
//     multiplicative hash and linear probing, at load ≤ 1/2.
//
// Both live in storage the set keeps across scopes, so a warmed-up
// worker inserts without allocating. Retained capacity is bounded by
// the largest scope seen: under 4 table words per destination, or |V|
// bits — O(d_max) either way. Membership answers are all the set
// contributes, so its layout cannot influence the generated graph.
// BenchmarkDedup sets both against a Go map and a sorted slice.
type DedupSet struct {
	tier  dedupTier
	words []uint64 // bitmap tier
	table []int64  // table tier, len a power of two
	shift uint     // 64 − log2(len(table))
}

type dedupTier uint8

const (
	// tierNone admits everything: AllowDuplicates mode.
	tierNone dedupTier = iota
	tierBitmap
	tierTable
)

// Begin empties the set and sizes it for a scope of up to size ≥ 1
// distinct destinations drawn from [0, nv). dedup false selects
// tierNone.
func (s *DedupSet) Begin(size, nv int64, dedup bool) {
	switch {
	case !dedup:
		s.tier = tierNone
	case nv <= 64*size:
		s.tier = tierBitmap
		n := int((nv + 63) / 64)
		if cap(s.words) < n {
			s.words = make([]uint64, n)
		}
		s.words = s.words[:n]
		clear(s.words)
	default:
		s.tier = tierTable
		lg := uint(bits.Len64(uint64(2*size - 1))) // capacity ≥ 2·size
		n := 1 << lg
		if cap(s.table) < n {
			s.table = make([]int64, n)
		}
		s.table = s.table[:n]
		clear(s.table)
		s.shift = 64 - lg
	}
}

// Insert returns false if v was already present.
func (s *DedupSet) Insert(v int64) bool {
	switch s.tier {
	case tierBitmap:
		w, bit := &s.words[v>>6], uint64(1)<<(uint(v)&63)
		if *w&bit != 0 {
			return false
		}
		*w |= bit
		return true
	case tierTable:
		key, mask := v+1, uint64(len(s.table)-1)
		for i := uint64(v) * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
			switch s.table[i] {
			case 0:
				s.table[i] = key
				return true
			case key:
				return false
			}
		}
	}
	return true
}
