package gformat

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFormatString(t *testing.T) {
	cases := map[Format]string{TSV: "TSV", ADJ6: "ADJ6", CSR6: "CSR6"}
	for f, want := range cases {
		if f.String() != want {
			t.Fatalf("String(%d) = %q, want %q", int(f), f.String(), want)
		}
	}
	if got := Format(99).String(); got != "Format(99)" {
		t.Fatalf("unknown format string = %q", got)
	}
}

func TestParseFormat(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Format
	}{{"tsv", TSV}, {"TSV", TSV}, {"adj6", ADJ6}, {"adj", ADJ6}, {"csr6", CSR6}, {"csr", CSR6}} {
		got, err := ParseFormat(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseFormat(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseFormat("edgelist"); err == nil {
		t.Fatal("expected error for unknown format")
	}
}

func TestPut48Get48RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		id := int64(v & uint64(MaxVertexID))
		var out bytes.Buffer
		b := newBlock(&out)
		if b.put48s([]int64{id, id}) != nil || b.flush() != nil {
			return false
		}
		return out.Len() == 12 && get48(out.Bytes()) == id && get48(out.Bytes()[6:]) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTSVWriter(&buf)
	scopes := map[int64][]int64{
		0:   {5, 2, 9},
		7:   {0},
		123: {456, 789},
	}
	var want []Edge
	for _, src := range []int64{0, 7, 123} {
		if err := w.WriteScope(src, scopes[src]); err != nil {
			t.Fatal(err)
		}
		for _, d := range scopes[src] {
			want = append(want, Edge{src, d})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EdgesWritten() != 6 {
		t.Fatalf("EdgesWritten = %d, want 6", w.EdgesWritten())
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, buffer has %d", w.BytesWritten(), buf.Len())
	}
	r := NewTSVReader(&buf)
	var got []Edge
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %v, want %v", got, want)
	}
}

func TestTSVReaderMalformed(t *testing.T) {
	for _, in := range []string{"1 2\n", "a\t2\n", "1\tb\n"} {
		r := NewTSVReader(strings.NewReader(in))
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Fatalf("input %q: expected parse error, got %v", in, err)
		}
	}
}

func TestADJ6RoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewADJ6Writer(&buf)
	type rec struct {
		src  int64
		dsts []int64
	}
	recs := []rec{
		{1, []int64{2, 3, MaxVertexID}},
		{42, []int64{0}},
		{MaxVertexID, []int64{7, 7, 8}},
	}
	for _, rc := range recs {
		if err := w.WriteScope(rc.src, rc.dsts); err != nil {
			t.Fatal(err)
		}
	}
	// Empty scope is skipped entirely.
	if err := w.WriteScope(5, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EdgesWritten() != 7 {
		t.Fatalf("EdgesWritten = %d, want 7", w.EdgesWritten())
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, buffer %d", w.BytesWritten(), buf.Len())
	}
	r := NewADJ6Reader(&buf)
	for i := 0; ; i++ {
		src, dsts, err := r.Next()
		if err == io.EOF {
			if i != len(recs) {
				t.Fatalf("read %d records, want %d", i, len(recs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if src != recs[i].src || !reflect.DeepEqual(dsts, recs[i].dsts) {
			t.Fatalf("record %d: got (%d, %v), want %+v", i, src, dsts, recs[i])
		}
	}
}

func TestADJ6RejectsOutOfRangeIDs(t *testing.T) {
	w := NewADJ6Writer(io.Discard)
	if err := w.WriteScope(MaxVertexID+1, []int64{1}); err == nil {
		t.Fatal("expected error for oversized source")
	}
	if err := w.WriteScope(1, []int64{-1}); err == nil {
		t.Fatal("expected error for negative destination")
	}
}

func TestADJ6TruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewADJ6Writer(&buf)
	if err := w.WriteScope(3, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	r := NewADJ6Reader(bytes.NewReader(trunc))
	if _, _, err := r.Next(); err == nil {
		t.Fatal("expected truncation error")
	}
}

func csrTempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "g.csr6"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestCSR6RoundTrip(t *testing.T) {
	f := csrTempFile(t)
	const nv = 8
	w, err := NewCSR6Writer(f, nv)
	if err != nil {
		t.Fatal(err)
	}
	scopes := map[int64][]int64{
		0: {3, 1, 2}, // unsorted on purpose; CSR must sort
		2: {7},
		5: {6, 4},
		7: {0, 0, 5}, // duplicate destinations preserved as given
	}
	for _, src := range []int64{0, 2, 5, 7} {
		if err := w.WriteScope(src, scopes[src]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.EdgesWritten() != 9 {
		t.Fatalf("EdgesWritten = %d, want 9", w.EdgesWritten())
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	g, err := ReadCSR6(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != nv || g.NumEdges() != 9 {
		t.Fatalf("loaded %d vertices %d edges", g.NumVertices, g.NumEdges())
	}
	for v := int64(0); v < nv; v++ {
		adj := g.Adj(v)
		wantAdj := append([]int64(nil), scopes[v]...)
		sort.Slice(wantAdj, func(i, j int) bool { return wantAdj[i] < wantAdj[j] })
		if len(wantAdj) == 0 {
			wantAdj = nil
		}
		var gotAdj []int64
		if len(adj) > 0 {
			gotAdj = append(gotAdj, adj...)
		}
		if !reflect.DeepEqual(gotAdj, wantAdj) {
			t.Fatalf("vertex %d: adj %v, want %v", v, gotAdj, wantAdj)
		}
		if g.Degree(v) != int64(len(wantAdj)) {
			t.Fatalf("vertex %d degree %d, want %d", v, g.Degree(v), len(wantAdj))
		}
	}
}

func TestCSR6RequiresIncreasingSources(t *testing.T) {
	f := csrTempFile(t)
	w, err := NewCSR6Writer(f, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteScope(4, []int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteScope(4, []int64{2}); err == nil {
		t.Fatal("expected error for repeated source")
	}
	if err := w.WriteScope(3, []int64{2}); err == nil {
		t.Fatal("expected error for decreasing source")
	}
	if err := w.WriteScope(10, []int64{2}); err == nil {
		t.Fatal("expected error for source beyond vertex count")
	}
}

func TestCSR6CloseIdempotent(t *testing.T) {
	f := csrTempFile(t)
	w, err := NewCSR6Writer(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteScope(1, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSR6BadMagic(t *testing.T) {
	if _, err := ReadCSR6(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestDiscardWriterCounts(t *testing.T) {
	d := NewDiscardWriter(ADJ6)
	if err := d.WriteScope(1, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if d.EdgesWritten() != 3 {
		t.Fatalf("edges %d, want 3", d.EdgesWritten())
	}
	if d.BytesWritten() != 10+18 {
		t.Fatalf("bytes %d, want 28", d.BytesWritten())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiscardTSVMatchesReal: the discard writer's TSV byte accounting
// matches the real TSV writer exactly.
func TestDiscardTSVMatchesReal(t *testing.T) {
	var buf bytes.Buffer
	real := NewTSVWriter(&buf)
	disc := NewDiscardWriter(TSV)
	write := func(src int64, dsts []int64) {
		if err := real.WriteScope(src, dsts); err != nil {
			t.Fatal(err)
		}
		if err := disc.WriteScope(src, dsts); err != nil {
			t.Fatal(err)
		}
	}
	write(0, []int64{0, 10, 100, 12345})
	write(999999, []int64{MaxVertexID})
	if err := real.Close(); err != nil {
		t.Fatal(err)
	}
	if real.BytesWritten() != disc.BytesWritten() {
		t.Fatalf("real %d bytes, discard %d", real.BytesWritten(), disc.BytesWritten())
	}
}

// TestADJ6SmallerThanTSV mirrors the paper's claim that ADJ6 files are
// 3–4x smaller than TSV for large-ID graphs.
func TestADJ6SmallerThanTSV(t *testing.T) {
	tsv := NewDiscardWriter(TSV)
	adj := NewDiscardWriter(ADJ6)
	base := int64(1) << 37 // 12-digit IDs, the regime the claim targets
	for src := int64(0); src < 100; src++ {
		dsts := make([]int64, 16)
		for i := range dsts {
			dsts[i] = base + src*31 + int64(i)*977
		}
		if err := tsv.WriteScope(base+src, dsts); err != nil {
			t.Fatal(err)
		}
		if err := adj.WriteScope(base+src, dsts); err != nil {
			t.Fatal(err)
		}
	}
	ratio := float64(tsv.BytesWritten()) / float64(adj.BytesWritten())
	if ratio < 2 || ratio > 5 {
		t.Fatalf("TSV/ADJ6 size ratio %v, want within [2, 5]", ratio)
	}
}

// benchScopes is 256 scopes of 16 destinations with increasing sources
// (CSR6 needs that) and unsorted 6- to 8-digit destinations.
func benchScopes() (srcs []int64, dsts [][]int64) {
	r := rng.New(7)
	for i := 0; i < 256; i++ {
		srcs = append(srcs, int64(i)*509)
		d := make([]int64, 16)
		for j := range d {
			d[j] = r.Int63n(1 << 24)
		}
		dsts = append(dsts, d)
	}
	return srcs, dsts
}

// benchWrite reports ns per edge: one writer per pass over the scopes,
// as a part has one.
func benchWrite(b *testing.B, mk func() Writer) {
	srcs, dsts := benchScopes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mk()
		for k, src := range srcs {
			if err := w.WriteScope(src, dsts[k]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(srcs)*16), "ns/edge")
}

func BenchmarkTSVWrite(b *testing.B) {
	benchWrite(b, func() Writer { return NewTSVWriter(io.Discard) })
}

func BenchmarkADJ6Write(b *testing.B) {
	benchWrite(b, func() Writer { return NewADJ6Writer(io.Discard) })
}

// memSeeker is an in-memory io.WriteSeeker, so the CSR6 benchmark times
// the encoder and not a disk.
type memSeeker struct {
	buf []byte
	pos int
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if need := m.pos + len(p); need > len(m.buf) {
		m.buf = append(m.buf, make([]byte, need-len(m.buf))...)
	}
	m.pos += copy(m.buf[m.pos:], p)
	return len(p), nil
}

func (m *memSeeker) Seek(off int64, whence int) (int64, error) {
	if whence != io.SeekStart {
		return 0, errors.New("memSeeker: only SeekStart")
	}
	m.pos = int(off)
	return off, nil
}

func BenchmarkCSR6Write(b *testing.B) {
	var f memSeeker
	benchWrite(b, func() Writer {
		w, err := NewCSR6Writer(&f, 256*509)
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}
