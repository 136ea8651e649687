package gformat

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestADJ6RoundTripProperty: random scopes survive a write/read cycle
// bit-exactly, for arbitrary sizes and 48-bit IDs.
func TestADJ6RoundTripProperty(t *testing.T) {
	src := rng.New(99)
	f := func(nScopes uint8, seed uint16) bool {
		var buf bytes.Buffer
		w := NewADJ6Writer(&buf)
		type rec struct {
			src  int64
			dsts []int64
		}
		var want []rec
		n := int(nScopes)%20 + 1
		for i := 0; i < n; i++ {
			r := rec{src: src.Int63n(MaxVertexID + 1)}
			deg := int(src.Int63n(40))
			for j := 0; j < deg; j++ {
				r.dsts = append(r.dsts, src.Int63n(MaxVertexID+1))
			}
			if err := w.WriteScope(r.src, r.dsts); err != nil {
				return false
			}
			if deg > 0 {
				want = append(want, r)
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd := NewADJ6Reader(&buf)
		for _, wrec := range want {
			gsrc, gdsts, err := rd.Next()
			if err != nil || gsrc != wrec.src || len(gdsts) != len(wrec.dsts) {
				return false
			}
			for i := range gdsts {
				if gdsts[i] != wrec.dsts[i] {
					return false
				}
			}
		}
		_, _, err := rd.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTSVRoundTripProperty: random edges survive text serialization.
func TestTSVRoundTripProperty(t *testing.T) {
	src := rng.New(101)
	f := func(n uint8) bool {
		var buf bytes.Buffer
		w := NewTSVWriter(&buf)
		var want []Edge
		for i := 0; i < int(n)%50+1; i++ {
			e := Edge{Src: src.Int63n(1 << 48), Dst: src.Int63n(1 << 48)}
			want = append(want, e)
			if err := w.WriteScope(e.Src, []int64{e.Dst}); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r := NewTSVReader(&buf)
		for _, e := range want {
			got, err := r.Next()
			if err != nil || got != e {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTSVReader: arbitrary bytes never panic the text parser or the
// byte scan, and what the stricter of the two (CheckTSV) accepts, the
// reader reads to the end, one edge per line.
func FuzzTSVReader(f *testing.F) {
	f.Add([]byte("1\t2\n3\t4\n"))
	f.Add([]byte("\t\n\t\t\n"))
	f.Add([]byte("9999999999999999999999\t1\n"))
	f.Add([]byte("1\t23\n4\t5"))
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := CheckTSV(bytes.NewReader(data)) == nil
		r := NewTSVReader(bytes.NewReader(data))
		edges := 0
		for ; ; edges++ {
			if _, err := r.Next(); err != nil {
				if valid && (err != io.EOF || edges != bytes.Count(data, []byte{'\n'})) {
					t.Fatalf("CheckTSV accepts %q; the reader stops after %d edges with %v", data, edges, err)
				}
				return
			}
		}
	})
}

// FuzzADJ6Reader: arbitrary bytes never panic the binary parser (it may
// error, and over-large counts must not OOM thanks to the cap below).
func FuzzADJ6Reader(f *testing.F) {
	var buf bytes.Buffer
	w := NewADJ6Writer(&buf)
	w.WriteScope(7, []int64{1, 2, 3})
	w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte{0, 1, 2, 3, 4, 5, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewADJ6Reader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			if _, _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

// FuzzReadCSR6: corrupt CSR headers error cleanly without huge
// allocations or panics.
func FuzzReadCSR6(f *testing.F) {
	f.Add(make([]byte, 24))
	f.Add(append([]byte("CSR6\x00\x00\x00\x01"), make([]byte, 64)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadCSR6(bytes.NewReader(data))
	})
}
