package gformat

// Tests that pin the block encoders' bytes: every writer against an
// oracle that formats with fmt / encoding/binary, one value at a time.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"
)

type scope struct {
	src  int64
	dsts []int64
}

func oracleTSV(scopes []scope) []byte {
	var b bytes.Buffer
	for _, s := range scopes {
		for _, d := range s.dsts {
			fmt.Fprintf(&b, "%d\t%d\n", s.src, d)
		}
	}
	return b.Bytes()
}

func oraclePut48(b *bytes.Buffer, v int64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(v))
	b.Write(w[:6])
}

func oracleADJ6(scopes []scope) []byte {
	var b bytes.Buffer
	for _, s := range scopes {
		if len(s.dsts) == 0 {
			continue
		}
		oraclePut48(&b, s.src)
		binary.Write(&b, binary.LittleEndian, uint32(len(s.dsts)))
		for _, d := range s.dsts {
			oraclePut48(&b, d)
		}
	}
	return b.Bytes()
}

func oracleCSR6(scopes []scope, numVertices int64) []byte {
	offsets := make([]uint64, numVertices+1)
	var neighbours bytes.Buffer
	var edges uint64
	for _, s := range scopes {
		sorted := append([]int64(nil), s.dsts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, d := range sorted {
			oraclePut48(&neighbours, d)
		}
		offsets[s.src+1] = uint64(len(sorted))
		edges += uint64(len(sorted))
	}
	for v := int64(0); v < numVertices; v++ {
		offsets[v+1] += offsets[v]
	}
	var b bytes.Buffer
	b.Write(csrMagic[:])
	binary.Write(&b, binary.LittleEndian, uint64(numVertices))
	binary.Write(&b, binary.LittleEndian, edges)
	binary.Write(&b, binary.LittleEndian, offsets)
	b.Write(neighbours.Bytes())
	return b.Bytes()
}

// chunkRecorder is an io.Writer that keeps what it is given and checks
// that no call exceeds a block.
type chunkRecorder struct {
	t *testing.T
	bytes.Buffer
	calls int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.calls++
	if len(p) == 0 || len(p) > blockSize {
		c.t.Errorf("underlying Write of %d bytes, want 1..%d", len(p), blockSize)
	}
	return c.Buffer.Write(p)
}

// writeScopes runs scopes through w, checking after every scope that
// BytesWritten — flushed plus pending — is the length of the oracle's
// output so far.
func writeScopes(t *testing.T, w Writer, scopes []scope, oracle func([]scope) []byte) {
	t.Helper()
	var edges int64
	for i, s := range scopes {
		if err := w.WriteScope(s.src, s.dsts); err != nil {
			t.Fatalf("scope %d: %v", i, err)
		}
		edges += int64(len(s.dsts))
		if oracle != nil {
			if got, want := w.BytesWritten(), int64(len(oracle(scopes[:i+1]))); got != want {
				t.Fatalf("after scope %d BytesWritten = %d, oracle has %d", i, got, want)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EdgesWritten() != edges {
		t.Fatalf("EdgesWritten = %d, want %d", w.EdgesWritten(), edges)
	}
}

func checkStream(t *testing.T, name string, w Writer, got *chunkRecorder, want []byte) {
	t.Helper()
	if !bytes.Equal(got.Bytes(), want) {
		at := 0
		for at < len(want) && at < got.Len() && got.Bytes()[at] == want[at] {
			at++
		}
		t.Fatalf("%s: %d bytes, oracle %d, first difference at %d", name, got.Len(), len(want), at)
	}
	if w.BytesWritten() != int64(len(want)) {
		t.Fatalf("%s: BytesWritten = %d, wrote %d", name, w.BytesWritten(), len(want))
	}
}

// boundaryIDs are the values at which a decimal (or 6-byte) encoding
// changes length, up to limit.
func boundaryIDs(limit int64) []int64 {
	ids := []int64{0}
	for p := int64(10); ; p *= 10 {
		if p-1 <= limit {
			ids = append(ids, p-1)
		}
		if p > limit {
			break
		}
		ids = append(ids, p)
		if p > math.MaxInt64/10 {
			break
		}
	}
	for b := uint(1); b < 63; b++ {
		if v := int64(1) << b; v <= limit {
			ids = append(ids, v-1, v)
		}
	}
	return append(ids, limit)
}

// TestTSVDigitBoundaries: every digit-count boundary up to MaxInt64 as
// source and as destination, and negatives as strconv prints them.
func TestTSVDigitBoundaries(t *testing.T) {
	ids := boundaryIDs(math.MaxInt64)
	ids = append(ids, MaxVertexID, -1, -9, -10, -99999999, -100000000, -1<<48, math.MinInt64+1, math.MinInt64)
	var scopes []scope
	for _, src := range ids {
		scopes = append(scopes, scope{src, ids})
	}
	rec := &chunkRecorder{t: t}
	w := NewTSVWriter(rec)
	writeScopes(t, w, scopes, nil)
	checkStream(t, "TSV", w, rec, oracleTSV(scopes))

	for _, v := range ids {
		if got, want := decimalLen(v), len(fmt.Sprint(v)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestBinaryIDBoundaries: ADJ6 and CSR6 over every boundary up to
// 2^48-1.
func TestBinaryIDBoundaries(t *testing.T) {
	ids := boundaryIDs(MaxVertexID)
	var scopes []scope
	for _, src := range ids {
		scopes = append(scopes, scope{src, ids})
	}
	rec := &chunkRecorder{t: t}
	w := NewADJ6Writer(rec)
	writeScopes(t, w, scopes, oracleADJ6)
	checkStream(t, "ADJ6", w, rec, oracleADJ6(scopes))

	// CSR6 wants increasing sources below the vertex count.
	const nv = 64
	scopes = scopes[:0]
	for v := int64(0); v < nv; v += 3 {
		scopes = append(scopes, scope{v, ids})
	}
	var f memSeeker
	cw, err := NewCSR6Writer(&f, nv)
	if err != nil {
		t.Fatal(err)
	}
	writeScopes(t, cw, scopes, nil)
	want := oracleCSR6(scopes, nv)
	if !bytes.Equal(f.buf, want) {
		t.Fatalf("CSR6: %d bytes differ from the oracle's %d", len(f.buf), len(want))
	}
	if cw.BytesWritten() != int64(len(want)) {
		t.Fatalf("CSR6: BytesWritten = %d after Close, file has %d", cw.BytesWritten(), len(want))
	}
}

// filler returns scopes whose TSV (ADJ6) encoding is exactly n bytes
// long, n ≥ 12 (n even, ≥ 16 for ADJ6).
func fillerTSV(n int) []scope {
	var five int // 4a + 5b = n: lines "1\t1\n" and "1\t22\n"
	for (n-5*five)%4 != 0 {
		five++
	}
	s := scope{src: 1}
	for i := 0; i < five; i++ {
		s.dsts = append(s.dsts, 22)
	}
	for i := 0; i < (n-5*five)/4; i++ {
		s.dsts = append(s.dsts, 1)
	}
	return []scope{s}
}

func fillerADJ6(n int) []scope {
	var out []scope // 16a + 22b = n: records of one and of two IDs
	for n%16 != 0 {
		out = append(out, scope{2, []int64{3, 4}})
		n -= 22
	}
	for ; n > 0; n -= 16 {
		out = append(out, scope{5, []int64{6}})
	}
	return out
}

// TestBlockBoundaryEveryResidue puts, before a scope of long IDs, filler
// that ends r bytes short of a block's length, for every r around the
// longest item: the writer's decision to flush falls at every distance
// from the block's end, on both sides of its threshold.
func TestBlockBoundaryEveryResidue(t *testing.T) {
	long := scope{src: MaxVertexID, dsts: []int64{MaxVertexID, 7, MaxVertexID - 1, 123456789012, 0}}
	for r := 0; r <= 2*tsvLineMax; r++ {
		scopes := append(fillerTSV(blockSize-r), long, long)
		rec := &chunkRecorder{t: t}
		w := NewTSVWriter(rec)
		writeScopes(t, w, scopes, nil)
		checkStream(t, fmt.Sprintf("TSV, %d bytes short of a block", r), w, rec, oracleTSV(scopes))
		if rec.calls < 2 {
			t.Fatalf("TSV residue %d: %d underlying writes, boundary not crossed", r, rec.calls)
		}
	}
	for r := 0; r <= 48; r += 2 { // an ADJ6 stream has even length
		scopes := append(fillerADJ6(blockSize-r), long, long)
		rec := &chunkRecorder{t: t}
		w := NewADJ6Writer(rec)
		writeScopes(t, w, scopes, nil)
		checkStream(t, fmt.Sprintf("ADJ6, %d bytes short of a block", r), w, rec, oracleADJ6(scopes))
		if rec.calls < 2 {
			t.Fatalf("ADJ6 residue %d: %d underlying writes, boundary not crossed", r, rec.calls)
		}
	}
	// CSR6: the neighbour section at every residue of a 6-byte ID, and an
	// offset table (nv+1 words) that is itself several blocks long.
	const nv = 3 * blockSize / 8
	for r := 0; r < 6; r++ {
		fill := scope{src: 0}
		for i := 0; i < (blockSize-6*r)/6-3; i++ {
			fill.dsts = append(fill.dsts, int64(i))
		}
		scopes := []scope{fill, {src: 9, dsts: long.dsts}, {src: nv - 1, dsts: long.dsts}}
		var f memSeeker
		w, err := NewCSR6Writer(&f, nv)
		if err != nil {
			t.Fatal(err)
		}
		writeScopes(t, w, scopes, nil)
		if want := oracleCSR6(scopes, nv); !bytes.Equal(f.buf, want) {
			t.Fatalf("CSR6 residue %d: %d bytes differ from the oracle's %d", r, len(f.buf), len(want))
		}
		if _, err := ReadCSR6(bytes.NewReader(f.buf)); err != nil {
			t.Fatalf("CSR6 residue %d does not read back: %v", r, err)
		}
	}
}

// TestScopeLargerThanBlock: one scope of several blocks passes through
// the one block.
func TestScopeLargerThanBlock(t *testing.T) {
	big := scope{src: 1 << 40}
	for i := 0; i < 50_000; i++ {
		big.dsts = append(big.dsts, int64(i)*5_629_499_534)
	}
	scopes := []scope{{3, []int64{4}}, big, {1<<40 + 1, []int64{5, 6}}}

	rec := &chunkRecorder{t: t}
	tw := NewTSVWriter(rec)
	writeScopes(t, tw, scopes, nil)
	checkStream(t, "TSV", tw, rec, oracleTSV(scopes))

	rec = &chunkRecorder{t: t}
	aw := NewADJ6Writer(rec)
	writeScopes(t, aw, scopes, nil)
	checkStream(t, "ADJ6", aw, rec, oracleADJ6(scopes))

	var f memSeeker
	cw, err := NewCSR6Writer(&f, 8)
	if err != nil {
		t.Fatal(err)
	}
	small := []scope{{0, []int64{4}}, {3, big.dsts}, {7, []int64{6, 5}}}
	writeScopes(t, cw, small, nil)
	if want := oracleCSR6(small, 8); !bytes.Equal(f.buf, want) {
		t.Fatalf("CSR6: %d bytes differ from the oracle's %d", len(f.buf), len(want))
	}
}

// TestBytesWrittenMidBlock: what BytesWritten reports while everything is
// still pending is what Close then delivers.
func TestBytesWrittenMidBlock(t *testing.T) {
	scopes := []scope{{17, []int64{1, 22, 333}}, {4444, []int64{55555}}}
	for name, mk := range map[string]func(io.Writer) Writer{
		"TSV":  func(w io.Writer) Writer { return NewTSVWriter(w) },
		"ADJ6": func(w io.Writer) Writer { return NewADJ6Writer(w) },
	} {
		rec := &chunkRecorder{t: t}
		w := mk(rec)
		for _, s := range scopes {
			if err := w.WriteScope(s.src, s.dsts); err != nil {
				t.Fatal(err)
			}
		}
		pending := w.BytesWritten()
		if pending == 0 || rec.Len() != 0 {
			t.Fatalf("%s: BytesWritten %d with %d bytes delivered before Close", name, pending, rec.Len())
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if int64(rec.Len()) != pending || w.BytesWritten() != pending {
			t.Fatalf("%s: Close delivered %d bytes, BytesWritten said %d before and %d after", name, rec.Len(), pending, w.BytesWritten())
		}
	}
}

// brokenWriter takes `good` writes, then fails; short makes it lie
// instead: a short count with a nil error.
type brokenWriter struct {
	good, calls int
	short       bool
}

var errBroken = errors.New("underlying writer broke")

func (b *brokenWriter) Write(p []byte) (int, error) {
	b.calls++
	if b.calls <= b.good {
		return len(p), nil
	}
	if b.short {
		return len(p) / 2, nil
	}
	return 0, errBroken
}

// TestUnderlyingErrorSurfacesOnce: the scope whose flush fails reports
// the failure, the underlying writer is not called again, and Close
// reports it too instead of claiming a clean part.
func TestUnderlyingErrorSurfacesOnce(t *testing.T) {
	s := fillerTSV(blockSize / 2)[0]
	for name, mk := range map[string]func(io.Writer) Writer{
		"TSV":  func(w io.Writer) Writer { return NewTSVWriter(w) },
		"ADJ6": func(w io.Writer) Writer { return NewADJ6Writer(w) },
	} {
		for _, short := range []bool{false, true} {
			want := errBroken
			if short {
				want = io.ErrShortWrite
			}
			under := &brokenWriter{good: 1, short: short}
			w := mk(under)
			var err error
			for i := 0; err == nil && i < 100; i++ {
				err = w.WriteScope(s.src, s.dsts)
			}
			if !errors.Is(err, want) {
				t.Fatalf("%s: WriteScope error %v, want %v", name, err, want)
			}
			if under.calls != 2 {
				t.Fatalf("%s: %d underlying writes before the failure surfaced, want 2", name, under.calls)
			}
			if err := w.WriteScope(s.src, s.dsts); err != nil && !errors.Is(err, want) {
				t.Fatalf("%s: WriteScope after the failure: %v", name, err)
			}
			if err := w.Close(); !errors.Is(err, want) {
				t.Fatalf("%s: Close = %v after a failed write, want %v", name, err, want)
			}
			if under.calls != 2 {
				t.Fatalf("%s: the failed writer was called again (%d calls)", name, under.calls)
			}
		}
	}
	// A failure at Close itself — the only write of a short part.
	w := NewTSVWriter(&brokenWriter{})
	if err := w.WriteScope(1, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, errBroken) {
		t.Fatalf("Close = %v, want the underlying error", err)
	}
}

// TestADJ6RefusesBadScopeWhole: an out-of-range ID anywhere in a scope
// leaves nothing of the scope in the stream.
func TestADJ6RefusesBadScopeWhole(t *testing.T) {
	var buf bytes.Buffer
	w := NewADJ6Writer(&buf)
	good := scope{1, []int64{2, 3}}
	for _, bad := range [][]int64{{4, -1, 5}, {4, 5, MaxVertexID + 1}, {math.MinInt64}} {
		if err := w.WriteScope(9, bad); err == nil {
			t.Fatalf("scope %v accepted", bad)
		}
	}
	writeScopes(t, w, []scope{good}, nil)
	if want := oracleADJ6([]scope{good}); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("stream %x, want %x", buf.Bytes(), want)
	}
}

// TestWriteScopeSteadyStateAllocs: once a writer exists, writing a scope
// allocates nothing — block flushes included.
func TestWriteScopeSteadyStateAllocs(t *testing.T) {
	_, dsts := benchScopes()
	f := memSeeker{buf: make([]byte, 1<<22)} // grown once, here
	cw, err := NewCSR6Writer(&f, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	src := int64(0)
	for name, w := range map[string]Writer{
		"TSV":  NewTSVWriter(io.Discard),
		"ADJ6": NewADJ6Writer(io.Discard),
		"CSR6": cw,
	} {
		body := func() {
			for _, d := range dsts {
				src++ // CSR6 wants them increasing
				if err := w.WriteScope(src, d); err != nil {
					t.Fatal(err)
				}
			}
		}
		body() // CSR6's sort scratch grows once
		if n := testing.AllocsPerRun(20, body); n != 0 {
			t.Errorf("%s: %v allocations per %d scopes, want 0", name, n, len(dsts))
		}
	}
}

// FuzzTSVWriter: for any source and destinations the bytes are the
// oracle's, and they read back through TSVReader.
func FuzzTSVWriter(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(12345), []byte("\x00\x00\x00\x00\x00\x00\x00\x00\xff\xe0\xf5\x05\x00\x00\x00\x00"))
	f.Add(int64(-7), []byte("\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Fuzz(func(t *testing.T, src int64, raw []byte) {
		s := scope{src: src}
		for ; len(raw) >= 8; raw = raw[8:] {
			s.dsts = append(s.dsts, int64(binary.LittleEndian.Uint64(raw)))
		}
		var buf bytes.Buffer
		w := NewTSVWriter(&buf)
		if err := w.WriteScope(s.src, s.dsts); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if want := oracleTSV([]scope{s}); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("wrote %q, oracle %q", buf.Bytes(), want)
		}
		r := NewTSVReader(&buf)
		for _, d := range s.dsts {
			if e, err := r.Next(); err != nil || e != (Edge{src, d}) {
				t.Fatalf("read back %+v, %v; want %d→%d", e, err, src, d)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the last edge: %v", err)
		}
	})
}
