package gformat

// Tests of the one format switch: NewWriter, Scan and Check.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// scanAll returns every scope Scan passes on, copied out of the call.
func scanAll(r io.Reader, f Format) ([]scope, error) {
	var got []scope
	err := Scan(r, f, func(src int64, dsts []int64) error {
		got = append(got, scope{src, slices.Clone(dsts)})
		return nil
	})
	return got, err
}

// encode writes scopes in format f through NewWriter and returns the
// bytes.
func encode(t *testing.T, f Format, numVertices int64, scopes []scope) []byte {
	t.Helper()
	var m memSeeker
	w, err := NewWriter(&m, f, numVertices)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scopes {
		if err := w.WriteScope(s.src, s.dsts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return m.buf
}

// csr6Bytes hand-builds a CSR6 file from its header counts, its offset
// table and its neighbours, whatever they say.
func csr6Bytes(nv, ne int64, offsets []uint64, neighbours []int64) []byte {
	b := append([]byte(nil), csrMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(nv))
	b = binary.LittleEndian.AppendUint64(b, uint64(ne))
	for _, o := range offsets {
		b = binary.LittleEndian.AppendUint64(b, o)
	}
	for _, v := range neighbours {
		var id [8]byte
		binary.LittleEndian.PutUint64(id[:], uint64(v))
		b = append(b, id[:6]...)
	}
	return b
}

func TestScanScopes(t *testing.T) {
	for _, c := range []struct {
		name string
		f    Format
		in   []byte
		want []scope
	}{
		{
			name: "a TSV source that comes back is a second scope",
			f:    TSV,
			in:   []byte("1\t5\n1\t6\n2\t7\n1\t8\n"),
			want: []scope{{1, []int64{5, 6}}, {2, []int64{7}}, {1, []int64{8}}},
		},
		{
			name: "an empty TSV stream has no scopes",
			f:    TSV,
			in:   nil,
		},
		{
			name: "an ADJ6 record of no destinations is not passed on",
			f:    ADJ6,
			in: func() []byte {
				b := encode(t, ADJ6, 0, []scope{{3, []int64{1, 2}}})
				b = append(b, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0) // vertex 4, count 0
				return append(b, encode(t, ADJ6, 0, []scope{{5, []int64{0}}})...)
			}(),
			want: []scope{{3, []int64{1, 2}}, {5, []int64{0}}},
		},
		{
			name: "CSR6 zero-degree vertices never reach fn",
			f:    CSR6,
			in:   encode(t, CSR6, 6, []scope{{0, []int64{3, 1}}, {2, nil}, {4, []int64{0}}}),
			want: []scope{{0, []int64{1, 3}}, {4, []int64{0}}},
		},
		{
			name: "a CSR6 file of only zero-degree vertices has no scopes",
			f:    CSR6,
			in:   encode(t, CSR6, 3, nil),
		},
	} {
		got, err := scanAll(bytes.NewReader(c.in), c.f)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: scanned %v, want %v", c.name, got, c.want)
		}
		if err := Check(bytes.NewReader(c.in), c.f); err != nil {
			t.Errorf("%s: Check: %v", c.name, err)
		}
	}
}

// TestScanRoundTrip: a scope sequence written through NewWriter passes
// Check and scans back as the same sequence, in every format. CSR6
// needs increasing sources and gives its lists back sorted, so its
// scopes are drawn that way.
func TestScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nv = 300
	for _, f := range []Format{TSV, ADJ6, CSR6} {
		for trial := 0; trial < 20; trial++ {
			var scopes []scope
			for src := int64(rng.Intn(3)); src < nv; src += 1 + int64(rng.Intn(40)) {
				dsts := make([]int64, 1+rng.Intn(12))
				for i := range dsts {
					dsts[i] = rng.Int63n(nv)
				}
				if f == CSR6 {
					slices.Sort(dsts)
				}
				scopes = append(scopes, scope{src, dsts})
			}
			b := encode(t, f, nv, scopes)
			if err := Check(bytes.NewReader(b), f); err != nil {
				t.Fatalf("%v: Check of a writer's own output: %v", f, err)
			}
			got, err := scanAll(bytes.NewReader(b), f)
			if err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			if !reflect.DeepEqual(got, scopes) {
				t.Fatalf("%v: scanned %v, wrote %v", f, got, scopes)
			}
		}
	}
}

// TestScanStopsAtCallbackError: fn's error ends the scan and comes back
// as it is.
func TestScanStopsAtCallbackError(t *testing.T) {
	stop := errors.New("stop")
	for _, f := range []Format{TSV, ADJ6, CSR6} {
		b := encode(t, f, 4, []scope{{0, []int64{1}}, {2, []int64{3}}})
		calls := 0
		err := Scan(bytes.NewReader(b), f, func(int64, []int64) error {
			calls++
			return stop
		})
		if err != stop || calls != 1 {
			t.Errorf("%v: %d calls, %v; want 1 call and the callback's error", f, calls, err)
		}
	}
}

func TestNewWriterCSR6NeedsSeeker(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, CSR6, 4); err == nil {
		t.Fatal("CSR6 writer over a bytes.Buffer, which cannot seek")
	}
	for _, f := range []Format{TSV, ADJ6} {
		if _, err := NewWriter(&buf, f, 0); err != nil {
			t.Fatalf("%v over a plain writer: %v", f, err)
		}
	}
}

func TestUnknownFormatRefused(t *testing.T) {
	const f = Format(9)
	if _, err := NewWriter(io.Discard, f, 0); err == nil {
		t.Error("NewWriter took an unknown format")
	}
	if err := Scan(strings.NewReader(""), f, func(int64, []int64) error { return nil }); err == nil {
		t.Error("Scan took an unknown format")
	}
	if err := Check(strings.NewReader(""), f); err == nil {
		t.Error("Check took an unknown format")
	}
}

func TestCheckRejectsTruncation(t *testing.T) {
	for _, f := range []Format{TSV, ADJ6, CSR6} {
		b := encode(t, f, 4, []scope{{0, []int64{1, 2}}, {3, []int64{0}}})
		if err := Check(bytes.NewReader(b[:len(b)-1]), f); err == nil {
			t.Errorf("%v: Check accepts a part one byte short", f)
		}
	}
}

func TestStreams(t *testing.T) {
	if !TSV.Streams() || !ADJ6.Streams() || CSR6.Streams() {
		t.Fatal("TSV and ADJ6 stream, CSR6 does not")
	}
}

// TestReadCSR6RejectsCorruptOffsets: an offset table that passes the
// size and final-offset checks but would slice Neighbours out of range
// — or leave edges to no vertex — is refused as it is read, not left to
// panic Adj.
func TestReadCSR6RejectsCorruptOffsets(t *testing.T) {
	for _, c := range []struct {
		name    string
		nv, ne  int64
		offsets []uint64
	}{
		{"an offset past the edge count", 2, 1, []uint64{0, 5, 1}},
		{"a decreasing offset", 3, 2, []uint64{0, 2, 1, 2}},
		{"a first offset not at zero", 1, 1, []uint64{1, 1}},
	} {
		b := csr6Bytes(c.nv, c.ne, c.offsets, make([]int64, c.ne))
		if err := CheckCSR6(bytes.NewReader(b)); err != nil {
			t.Fatalf("%s: the O(1) check should not see this: %v", c.name, err)
		}
		if _, err := ReadCSR6(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: ReadCSR6 accepts offsets %v", c.name, c.offsets)
		}
		if _, err := scanAll(bytes.NewReader(b), CSR6); err == nil {
			t.Errorf("%s: Scan accepts offsets %v", c.name, c.offsets)
		}
	}
}

// FuzzScan: arbitrary bytes never panic Scan in any format, and no scope
// it passes on is empty. For ADJ6 it errors exactly when CheckADJ6
// does; what CheckTSV accepts it reads to the end, one edge per line;
// a CSR6 file it reads gives every edge its header declares.
func FuzzScan(f *testing.F) {
	var m memSeeker
	w, _ := NewCSR6Writer(&m, 4)
	w.WriteScope(0, []int64{3, 1})
	w.WriteScope(2, []int64{0})
	w.Close()
	f.Add(m.buf)
	var buf bytes.Buffer
	a := NewADJ6Writer(&buf)
	a.WriteScope(7, []int64{1, 2, 3})
	a.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("1\t5\n1\t6\n2\t7\n1\t8\n"))
	f.Add(csr6Bytes(2, 1, []uint64{0, 5, 1}, []int64{0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := func(format Format) (edges int64, err error) {
			err = Scan(bytes.NewReader(data), format, func(src int64, dsts []int64) error {
				if len(dsts) == 0 {
					t.Fatalf("%v: empty scope of %d passed on", format, src)
				}
				edges += int64(len(dsts))
				return nil
			})
			return edges, err
		}
		edges, err := scan(TSV)
		if CheckTSV(bytes.NewReader(data)) == nil && (err != nil || edges != int64(bytes.Count(data, []byte{'\n'}))) {
			t.Fatalf("CheckTSV accepts %q; Scan reads %d edges, %v", data, edges, err)
		}
		_, err = scan(ADJ6)
		if checked := CheckADJ6(bytes.NewReader(data)); (err == nil) != (checked == nil) {
			t.Fatalf("ADJ6 %x: Scan says %v, CheckADJ6 says %v", data, err, checked)
		}
		if edges, err := scan(CSR6); err == nil {
			if ne := int64(binary.LittleEndian.Uint64(data[16:])); edges != ne {
				t.Fatalf("CSR6 %x: scanned %d edges, header declares %d", data, edges, ne)
			}
		}
	})
}
