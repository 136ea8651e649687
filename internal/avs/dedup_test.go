package avs

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/recvec"
)

// insertOneByOne is InsertLanes' reference: Insert per value, in order.
func insertOneByOne(s *DedupSet, vs, dsts []int64) []int64 {
	for _, v := range vs {
		if s.Insert(v) {
			dsts = append(dsts, v)
		}
	}
	return dsts
}

// sameAsInsert feeds batches to one set by InsertLanes and to a twin by
// Insert, both begun alike, and requires the same appended values in the
// same order after every batch, then the same membership answers.
func sameAsInsert(t *testing.T, size, nv int64, dedup bool, want dedupTier, batches [][]int64) {
	t.Helper()
	var lanes, one DedupSet
	lanes.Begin(size, nv, dedup)
	one.Begin(size, nv, dedup)
	if lanes.tier != want {
		t.Fatalf("size %d of %d dedup %v: tier %d, want %d", size, nv, dedup, lanes.tier, want)
	}
	var got, ref []int64
	for i, b := range batches {
		got = lanes.InsertLanes(b, got)
		ref = insertOneByOne(&one, b, ref)
		if !slices.Equal(got, ref) {
			t.Fatalf("tier %d, after batch %d %v: InsertLanes kept %v, Insert %v", want, i, b, got, ref)
		}
	}
	for _, b := range batches {
		for _, v := range b {
			if lanes.Insert(v) != one.Insert(v) {
				t.Fatalf("tier %d: membership of %d differs after the batches", want, v)
			}
		}
	}
}

// TestInsertLanesMatchesInsert: InsertLanes appends exactly what one
// Insert per value admits, in lane order, in every tier — with repeats
// inside one batch, across batches, and empty and full batches. The
// batches hold 14 distinct values, the most a set begun for 14 admits.
func TestInsertLanesMatchesInsert(t *testing.T) {
	batches := [][]int64{
		{5, 5, 9, 1, 5, 9, 0, 63},
		{},
		{9, 64, 2, 2},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{100, 64, 7, 127},
		{11},
	}
	for _, tc := range []struct {
		size, nv int64
		dedup    bool
		tier     dedupTier
	}{
		{16, 1 << 20, false, tierNone},
		{16, 128, true, tierBitmap},
		{16, 1 << 20, true, tierTable},
		{14, 1 << 20, true, tierTable}, // the fewest slots 14 admits allow: probes collide
	} {
		sameAsInsert(t, tc.size, tc.nv, tc.dedup, tc.tier, batches)
	}
}

// FuzzInsertLanes holds InsertLanes to the Insert loop on arbitrary
// values cut into batches of 1 to WideLanes, in the tier mode%3 picks.
func FuzzInsertLanes(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint64(0x0123456701234567), []byte{1, 0, 1, 0, 2, 0, 9, 0, 2, 0})
	f.Add(uint8(1), uint8(6), uint64(0x7777777777777777), []byte{0, 0, 63, 0, 64, 0, 0, 0, 63, 0, 65, 0})
	f.Add(uint8(2), uint8(20), uint64(0x3210321032103210), []byte{7, 1, 7, 1, 0, 0, 255, 255, 7, 1})
	f.Fuzz(func(t *testing.T, mode, lg uint8, widths uint64, data []byte) {
		nv := int64(1) << (lg%24 + 1)
		vals := make([]int64, len(data)/2)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint16(data[2*i:])) % nv
		}
		size, dedup, tier := int64(len(vals))+1, true, tierTable
		switch mode % 3 {
		case 0:
			dedup, tier = false, tierNone
		case 1:
			size, tier = max(size, (nv+63)/64), tierBitmap
		default:
			nv = 1 << 40 // rules the bitmap out; the values stay as drawn
		}
		var batches [][]int64
		for len(vals) > 0 {
			w := min(int(widths%recvec.WideLanes)+1, len(vals))
			widths = bits.RotateLeft64(widths, -3)
			batches = append(batches, vals[:w])
			vals = vals[w:]
		}
		sameAsInsert(t, size, nv, dedup, tier, batches)
	})
}
