package gformat

import (
	"bytes"
	"io"
	"testing"
)

// poolScopes mixes an empty scope and one whose encoding outgrows a
// block, so a flush falls inside a scope as well as between them.
func poolScopes() []scope {
	long := make([]int64, 20000)
	for i := range long {
		long[i] = int64(i) * 7919
	}
	return []scope{{3, []int64{1, 2}}, {4, nil}, {5, long}, {1 << 40, []int64{9}}, {6, []int64{0}}}
}

// TestWriteAfterCloseMatchesFreshWriter: a TSV or ADJ6 writer gives its
// block back on Close and takes one again when it is written after, and
// its stream is the one a writer never closed in between writes — also
// when a second writer took the given-back block in the meantime.
func TestWriteAfterCloseMatchesFreshWriter(t *testing.T) {
	scopes := poolScopes()
	for _, f := range []Format{TSV, ADJ6} {
		var fresh bytes.Buffer
		fw, err := NewWriter(&fresh, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scopes {
			if err := fw.WriteScope(s.src, s.dsts); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}

		var a, b bytes.Buffer
		aw, _ := NewWriter(&a, f, 0)
		bw, _ := NewWriter(&b, f, 0)
		for _, s := range scopes {
			for _, w := range []Writer{aw, bw} {
				if err := w.WriteScope(s.src, s.dsts); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := aw.Close(); err != nil { // a second Close in a row is harmless
			t.Fatal(err)
		}
		for name, got := range map[string]*bytes.Buffer{"first": &a, "second": &b} {
			if !bytes.Equal(got.Bytes(), fresh.Bytes()) {
				t.Fatalf("%v: %s writer closed after every scope wrote %d bytes, a fresh one %d", f, name, got.Len(), fresh.Len())
			}
		}
		if aw.BytesWritten() != fw.BytesWritten() || aw.EdgesWritten() != fw.EdgesWritten() {
			t.Fatalf("%v: counters %d bytes / %d edges, fresh writer %d / %d",
				f, aw.BytesWritten(), aw.EdgesWritten(), fw.BytesWritten(), fw.EdgesWritten())
		}
	}
}

// TestPooledBuffersSteadyState: once warm, checking a part and a
// write–close cycle take their 64 KiB buffer from the pool — no
// allocation at all.
func TestPooledBuffersSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	scopes := poolScopes()
	var tsv, adj6 bytes.Buffer
	for _, enc := range []Writer{NewTSVWriter(&tsv), NewADJ6Writer(&adj6)} {
		for _, s := range scopes {
			enc.WriteScope(s.src, s.dsts)
		}
		enc.Close()
	}
	r := bytes.NewReader(nil)
	tw, aw := NewTSVWriter(io.Discard), NewADJ6Writer(io.Discard)
	for name, body := range map[string]func(){
		"CheckTSV": func() {
			r.Reset(tsv.Bytes())
			if err := CheckTSV(r); err != nil {
				t.Fatal(err)
			}
		},
		"CheckADJ6": func() {
			r.Reset(adj6.Bytes())
			if err := CheckADJ6(r); err != nil {
				t.Fatal(err)
			}
		},
		"TSV write-close": func() {
			tw.WriteScope(scopes[0].src, scopes[0].dsts)
			tw.Close()
		},
		"ADJ6 write-close": func() {
			aw.WriteScope(scopes[0].src, scopes[0].dsts)
			aw.Close()
		},
	} {
		body() // warm-up: the pool's first buffer is allocated here
		if n := testing.AllocsPerRun(100, body); n != 0 {
			t.Errorf("%s: %v allocations per call after warm-up, want 0", name, n)
		}
	}
}
