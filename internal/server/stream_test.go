package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gformat"
)

// concatParts reads every part file in dir in part order and returns
// the concatenated bytes — the batch-path reference a stream must
// reproduce.
func concatParts(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func generateToDir(t *testing.T, cfg core.Config, format gformat.Format) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := core.Generate(cfg, core.FileSinks(dir, format, cfg.NumVertices())); err != nil {
		t.Fatal(err)
	}
	return concatParts(t, dir)
}

func TestStreamRangeMatchesGenerateToDir(t *testing.T) {
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
		cfg := core.DefaultConfig(12)
		cfg.Workers = 3
		cfg.NoiseParam = 0.1
		want := generateToDir(t, cfg, format)

		var buf bytes.Buffer
		st, err := StreamRange(context.Background(), cfg, format, 0, cfg.NumVertices(), &buf, StreamOptions{})
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v: streamed %d bytes differ from %d batch bytes", format, buf.Len(), len(want))
		}
		if st.BytesWritten != int64(buf.Len()) {
			t.Fatalf("%v: BytesWritten %d, wrote %d", format, st.BytesWritten, buf.Len())
		}
		if st.Scopes != cfg.NumVertices() {
			t.Fatalf("%v: scopes %d, want %d", format, st.Scopes, cfg.NumVertices())
		}
		if st.Edges == 0 || st.PeakWorkerBytes == 0 {
			t.Fatalf("%v: empty stats %+v", format, st)
		}
	}
}

func TestStreamRangeSubrangesConcatenate(t *testing.T) {
	cfg := core.DefaultConfig(10)
	nv := cfg.NumVertices()
	var full bytes.Buffer
	if _, err := StreamRange(context.Background(), cfg, gformat.TSV, 0, nv, &full, StreamOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	var pieces bytes.Buffer
	cuts := []int64{0, 17, nv / 3, nv / 2, nv}
	for i := 0; i+1 < len(cuts); i++ {
		// Different worker counts per piece must not change the bytes.
		opt := StreamOptions{Workers: i + 1}
		if _, err := StreamRange(context.Background(), cfg, gformat.TSV, cuts[i], cuts[i+1], &pieces, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(full.Bytes(), pieces.Bytes()) {
		t.Fatal("concatenated sub-range streams differ from the full stream")
	}
}

func TestStreamRangeValidation(t *testing.T) {
	cfg := core.DefaultConfig(8)
	ctx := context.Background()
	var buf bytes.Buffer
	if _, err := StreamRange(ctx, cfg, gformat.CSR6, 0, 1, &buf, StreamOptions{}); err == nil {
		t.Fatal("CSR6 stream accepted")
	}
	if _, err := StreamRange(ctx, cfg, gformat.TSV, -1, 1, &buf, StreamOptions{}); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := StreamRange(ctx, cfg, gformat.TSV, 0, cfg.NumVertices()+1, &buf, StreamOptions{}); err == nil {
		t.Fatal("hi beyond |V| accepted")
	}
	if _, err := StreamRange(ctx, cfg, gformat.TSV, 5, 2, &buf, StreamOptions{}); err == nil {
		t.Fatal("hi < lo accepted")
	}
	cfg.Scale = 0
	if _, err := StreamRange(ctx, cfg, gformat.TSV, 0, 1, &buf, StreamOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStreamRangeEmptyRange(t *testing.T) {
	cfg := core.DefaultConfig(8)
	var buf bytes.Buffer
	st, err := StreamRange(context.Background(), cfg, gformat.TSV, 7, 7, &buf, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scopes != 0 || buf.Len() != 0 {
		t.Fatalf("empty range produced %d scopes, %d bytes", st.Scopes, buf.Len())
	}
}

// cancelWriter cancels the stream's context once it has accepted n
// bytes, like a DELETE arriving mid-stream.
type cancelWriter struct {
	n      int
	cancel context.CancelFunc
	total  int64
}

func (c *cancelWriter) Write(p []byte) (int, error) {
	c.total += int64(len(p))
	if c.n -= len(p); c.n < 0 {
		c.cancel()
	}
	return len(p), nil
}

func TestStreamRangeCancel(t *testing.T) {
	cfg := core.DefaultConfig(16)
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		w := &cancelWriter{n: 1 << 17, cancel: cancel}
		st, err := StreamRange(ctx, cfg, gformat.TSV, 0, cfg.NumVertices(), w, StreamOptions{Workers: workers})
		if err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if st.Scopes >= cfg.NumVertices() {
			t.Fatalf("workers %d: stream ran to completion despite cancellation", workers)
		}
		// Generation stops within a scope of the cancel; what reaches the
		// writer afterwards is at most what was already encoded.
		if w.total > 4<<20 {
			t.Fatalf("workers %d: %d bytes written after cancelling at %d", workers, w.total, 1<<17)
		}
	}
}

// errWriter fails after accepting n bytes, like a client that vanished.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n -= len(p); e.n < 0 {
		return 0, os.ErrClosed
	}
	return len(p), nil
}

func TestStreamRangeWriterError(t *testing.T) {
	cfg := core.DefaultConfig(14)
	_, err := StreamRange(context.Background(), cfg, gformat.TSV, 0, cfg.NumVertices(),
		&errWriter{n: 1 << 16}, StreamOptions{Workers: 2})
	if err == nil {
		t.Fatal("write error not surfaced")
	}
}
