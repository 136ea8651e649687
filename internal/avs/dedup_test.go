package avs

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
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
func sameAsInsert(t *testing.T, size, nv, reach int64, dedup bool, want dedupTier, batches [][]int64) {
	t.Helper()
	var lanes, one DedupSet
	lanes.Begin(size, nv, reach, dedup)
	one.Begin(size, nv, reach, dedup)
	if lanes.tier != want {
		t.Fatalf("size %d of %d reach %d dedup %v: tier %d, want %d", size, nv, reach, dedup, lanes.tier, want)
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
		size, nv, reach int64
		dedup           bool
		tier            dedupTier
	}{
		{16, 1 << 20, 1 << 20, false, tierNone},
		{16, 128, 16, true, tierBitmap},
		{16, 1 << 20, 1 << 14, true, tierBitmap}, // by the generator's d̂_max
		{16, 1 << 20, 16, true, tierTable},
		{14, 1 << 20, 14, true, tierTable}, // the fewest slots 14 admits allow: probes collide
	} {
		sameAsInsert(t, tc.size, tc.nv, tc.reach, tc.dedup, tc.tier, batches)
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
		sameAsInsert(t, size, nv, size, dedup, tier, batches)
	})
}

// bitmapClean reports whether the bitmap's whole backing array is zero,
// as it must be between scopes.
func bitmapClean(s *DedupSet) bool {
	for _, w := range s.words[:cap(s.words)] {
		if w != 0 {
			return false
		}
	}
	return true
}

// FuzzDedupScopes drives a run of scopes through one set, as a thread
// lends its set to one generator after another. Each scope takes four
// header bytes — its |V| (powers of two and not), size (1 to a hub
// row's), d̂_max, dedup, Insert or InsertLanes, ended or abandoned
// mid-way — then draws values from the input until it has its size or
// the input runs out. Every answer must be a map's, and after every
// ended scope the bitmap must be clean.
func FuzzDedupScopes(f *testing.F) {
	f.Add([]byte{10, 0, 3, 2, 1, 0, 1, 0, 9, 0, 10, 8, 3, 2, 1, 0, 1, 0, 200, 0})
	f.Add([]byte{6, 4, 200, 0, 7, 0, 7, 0, 8, 0, 6, 9, 1, 9, 7, 0, 7, 0, 2, 3})
	f.Add([]byte{19, 13, 255, 130, 255, 255, 0, 1, 0, 1, 3, 2, 1, 4, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s DedupSet
		for scope := 0; len(data) >= 4; scope++ {
			h := data[:4]
			data = data[4:]
			lg := h[0]%20 + 1
			nv := max(int64(1)<<lg-int64(h[1]&3), 1)
			size := min(int64(h[2]&0x3f)+1, nv)
			if h[2]&0x80 != 0 { // a hub row
				size = max(nv>>(h[2]&7), 1)
			}
			reach := min(int64(1)<<(h[3]%24), nv)
			dedup := h[3]&0x40 == 0
			lanes := h[1]&4 != 0
			abandon := h[1]&8 != 0
			s.Begin(size, nv, reach, dedup)
			seen := make(map[int64]bool)
			var got []int64
			var one [1]int64
			var batch []int64
			for int64(len(got)) < size && len(data) >= 2 {
				if abandon && len(seen) > 0 && int64(len(got)) >= size/2 {
					break
				}
				v := int64(binary.LittleEndian.Uint16(data)) * 40503 % nv
				data = data[2:]
				want := !dedup || !seen[v]
				seen[v] = true
				var fresh bool
				if lanes {
					one[0] = v
					batch = s.InsertLanes(one[:], batch[:0])
					fresh = len(batch) == 1
				} else {
					fresh = s.Insert(v)
				}
				if fresh != want {
					t.Fatalf("scope %d (size %d of %d, reach %d, dedup %v): insert(%d) = %v, want %v", scope, size, nv, reach, dedup, v, fresh, want)
				}
				if fresh {
					got = append(got, v)
				}
			}
			if abandon {
				continue
			}
			s.End(got)
			if !bitmapClean(&s) {
				t.Fatalf("scope %d (size %d of %d, reach %d): bitmap not clean after End", scope, size, nv, reach)
			}
		}
	})
}

// TestMaxExpectedDegree: d̂_max is the largest ExpectedDegree over all
// rows, rounded up, noise-free and under NSKG, and clamped to |V|.
func TestMaxExpectedDegree(t *testing.T) {
	noisy := baseConfig(12)
	ns, err := skg.NewNoise(noisy.Seed, noisy.Levels, 0.1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	noisy.Noise = ns
	dense := baseConfig(4)
	dense.NumEdges = 1 << 20
	for _, cfg := range []Config{baseConfig(12), noisy, dense} {
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var top float64
		for u := range cfg.NumVertices() {
			top = max(top, g.ExpectedDegree(u))
		}
		// The closed form multiplies the per-level maxima in another order
		// than RowProb: allow their roundings one unit either way.
		want := min(math.Ceil(top), float64(cfg.NumVertices()))
		if got := float64(g.MaxExpectedDegree()); math.Abs(got-want) > 1 {
			t.Errorf("levels %d noisy %v: d̂_max %v, largest expected degree %v", cfg.Levels, cfg.Noise != nil, got, top)
		}
	}
}

// TestGeneratorDedupMemory: a generator keeps its set to the memory
// bound. At Scale 14, edge factor 16, |V| ≤ 64·d̂_max: every scope runs
// on one bitmap of ⌈|V|/64⌉ words ≤ d̂_max, clean after every scope. At
// Scale 16, edge factor 1, |V| > 64·d̂_max: every drawn scope takes the
// table, and only a hub row (|V| ≤ 64·size) gets a bitmap, of at most 8
// bytes per destination it was sized for.
func TestGeneratorDedupMemory(t *testing.T) {
	for _, tc := range []struct {
		levels int
		edges  int64
		shared bool
	}{
		{14, 16 << 14, true},
		{16, 1 << 16, false},
	} {
		cfg := baseConfig(tc.levels)
		cfg.NumEdges = tc.edges
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		nv, reach := cfg.NumVertices(), g.MaxExpectedDegree()
		if nv <= 64*reach != tc.shared {
			t.Fatalf("levels %d: |V| %d against d̂_max %d: the case no longer tests its rule", tc.levels, nv, reach)
		}
		var buf []int64
		var src rng.Source
		for u := range nv {
			src.Reseed(9, uint64(u))
			size := g.ScopeSize(u, &src)
			if size == 0 || !tc.shared && nv <= 64*size {
				continue // a hub row of the wide graph: see below
			}
			buf, _ = g.ScopeWithSize(buf[:0], u, size, &src)
			want := tierTable
			if tc.shared {
				want = tierBitmap
			}
			if g.set.tier != want {
				t.Fatalf("levels %d u %d size %d: tier %d, want %d", tc.levels, u, size, g.set.tier, want)
			}
			if !bitmapClean(g.set) {
				t.Fatalf("levels %d u %d: bitmap not clean after the scope", tc.levels, u)
			}
		}
		if got := 8 * int64(cap(g.set.words)); tc.shared && got > 8*reach || !tc.shared && got != 0 {
			t.Fatalf("levels %d: retained bitmap %d bytes for d̂_max %d", tc.levels, got, reach)
		}
		if tc.shared {
			continue
		}
		hub := nv / 64
		g.ScopeWithSize(buf[:0], 0, hub, &src)
		if got := 8 * int64(cap(g.set.words)); g.set.tier != tierBitmap || got > 8*hub || !bitmapClean(g.set) {
			t.Fatalf("levels %d: hub row of %d: tier %d, retained bitmap %d bytes", tc.levels, hub, g.set.tier, got)
		}
	}
}
