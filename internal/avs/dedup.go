package avs

import "math/bits"

// DedupSet is the in-scope duplicate filter of both scope loops,
// ScopeWithSize here and erv.ScopeAttempts. A scope's size is known
// before its first draw, so Begin picks the structure up front and no
// scope ever migrates between them:
//
//   - a bitmap of |V| bits when |V| ≤ 64·size, i.e. when it is no larger
//     than the 8·size bytes of destinations themselves (hub rows), or
//     when |V| ≤ 64·reach and |V| ≤ 2^23, reach being d̂_max, the largest
//     expected scope of the scope's generator: then the bitmap is no
//     larger than 8·d̂_max bytes, nor than 1 MiB, about one core's L2,
//     beyond which a bitmap of uniform keys costs a cache miss per
//     insert and no longer beats the table (BenchmarkDedup);
//   - otherwise an open-addressing table of v+1 (0 = empty) with a
//     multiplicative hash and linear probing, at load ≤ 1/2.
//
// The bitmap is one array kept across scopes and all zero between them:
// End zeroes the words of the scope's admitted destinations, so a
// bitmap scope costs O(its size), never O(|V|/64). A bitmap scope that
// was begun and never ended (a panic, an early return, a caller that
// only inserts) is found at the next Begin and cleared whole, so no
// answer depends on the caller ending its scopes. The table is cleared
// by Begin, in O(size).
//
// Both live in storage the set keeps across scopes, so a warmed-up
// worker inserts without allocating. Retained capacity is bounded by
// the largest scope and d̂_max seen: under 4 table words per destination,
// or |V| bits ≤ 8·max(d̂_max, size) bytes — O(d_max) either way.
// Membership answers are all the set contributes, so its layout cannot
// influence the generated graph. BenchmarkDedup sets both against a Go
// map and a sorted slice.
type DedupSet struct {
	tier  dedupTier
	words []uint64 // bitmap tier, len ⌈|V|/64⌉ of the scope begun last
	dirty bool     // a bitmap scope was begun and not yet ended
	table []int64  // table tier, len a power of two
	shift uint     // 64 − log2(len(table))
}

// maxSharedBits caps the bitmap that serves every scope of a generator,
// as against the bitmap of one hub row: 2^23 bits, 1 MiB.
const maxSharedBits = 1 << 23

type dedupTier uint8

const (
	// tierNone admits everything: AllowDuplicates mode.
	tierNone dedupTier = iota
	tierBitmap
	tierTable
)

// Begin empties the set and sizes it for a scope of up to size ≥ 1
// distinct destinations drawn from [0, nv), of a generator whose largest
// expected scope is reach (its d̂_max). dedup false selects tierNone.
// The scope should be closed by End.
func (s *DedupSet) Begin(size, nv, reach int64, dedup bool) {
	if s.dirty {
		clear(s.words)
		s.dirty = false
	}
	switch {
	case !dedup:
		s.tier = tierNone
	case nv <= 64*size, nv <= 64*reach && nv <= maxSharedBits:
		s.tier = tierBitmap
		s.dirty = true
		// Beyond len the array was never set since it was last cleared, so
		// a different |V| (a lent set) reslices it without clearing.
		n := int((nv + 63) / 64)
		if cap(s.words) < n {
			s.words = make([]uint64, n)
		}
		s.words = s.words[:n]
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

// End closes the scope begun last, given every destination the set
// admitted in it (in any order; before any caller offsets them). It
// zeroes the bitmap words those destinations set, or the whole bitmap
// when that is fewer stores; the other tiers need nothing.
func (s *DedupSet) End(dsts []int64) {
	if s.tier != tierBitmap {
		return
	}
	if len(s.words) <= 4*len(dsts) {
		// A sequential clear stores words several times faster than the
		// scattered stores below.
		clear(s.words)
	} else {
		for _, v := range dsts {
			s.words[v>>6] = 0
		}
	}
	s.dirty = false
}

// Insert returns false if v was already present.
func (s *DedupSet) Insert(v int64) bool {
	switch s.tier {
	case tierBitmap:
		return insertBit(s.words, v)
	case tierTable:
		return insertKey(s.table, s.shift, v)
	}
	return true
}

// InsertLanes inserts vs in order and appends to dsts, in order, each
// value that Insert would have admitted: a repeat within vs is rejected
// as a repeat across calls is. It is one call per batch of draws with
// the tier decided once, where Insert is one call and one tier switch
// per draw.
func (s *DedupSet) InsertLanes(vs, dsts []int64) []int64 {
	switch s.tier {
	case tierBitmap:
		for _, v := range vs {
			if insertBit(s.words, v) {
				dsts = append(dsts, v)
			}
		}
	case tierTable:
		for _, v := range vs {
			if insertKey(s.table, s.shift, v) {
				dsts = append(dsts, v)
			}
		}
	default:
		dsts = append(dsts, vs...)
	}
	return dsts
}

// insertBit sets bit v of the bitmap tier and reports whether it was
// clear.
func insertBit(words []uint64, v int64) bool {
	w, bit := &words[v>>6], uint64(1)<<(uint(v)&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// insertKey stores v+1 in the table tier, probing linearly from its
// multiplicative hash, and reports whether it was absent.
func insertKey(table []int64, shift uint, v int64) bool {
	key, mask := v+1, uint64(len(table)-1)
	for i := uint64(v) * 0x9E3779B97F4A7C15 >> shift; ; i = (i + 1) & mask {
		switch table[i] {
		case 0:
			table[i] = key
			return true
		case key:
			return false
		}
	}
}
