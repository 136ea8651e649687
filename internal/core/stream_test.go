package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/avs"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// planParts is cfg's own plan of n parts, each part's bytes generated
// alone in the given format, their concatenation and the edges those
// runs reported.
func planParts(t *testing.T, cfg Config, n int, format gformat.Format) ([]partition.Range, [][]byte, []byte, int64) {
	t.Helper()
	ranges, err := Plan(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]bytes.Buffer, n)
	parts := make([][]byte, n)
	var all []byte
	var edges int64
	for i := range ranges {
		st, err := GenerateRanges(cfg, ranges[i:i+1], bufferSinks(bufs[i:i+1], format))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = bufs[i].Bytes()
		all = append(all, parts[i]...)
		edges += st.Edges
	}
	return ranges, parts, all, edges
}

// TestStreamPartsConcatenatesParts is property (a): whatever the worker
// count, the stream is each part generated alone, in plan order.
func TestStreamPartsConcatenatesParts(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.NoiseParam = 0.1
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
		ranges, _, want, edges := planParts(t, cfg, 7, format)
		for _, workers := range []int{0, 1, 3, 16} {
			var got bytes.Buffer
			st, err := StreamParts(context.Background(), cfg, format, ranges, seqIDs(7), workers, &got, nil, nil)
			if err != nil {
				t.Fatalf("%v workers %d: %v", format, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%v workers %d: %d streamed bytes differ from the %d part bytes concatenated", format, workers, got.Len(), len(want))
			}
			if st.Edges != edges || st.BytesWritten != int64(len(want)) || st.Scopes != cfg.NumVertices() || st.PeakWorkerBytes == 0 {
				t.Fatalf("%v workers %d: stats %+v, want %d edges and %d scopes in %d bytes", format, workers, st, edges, cfg.NumVertices(), len(want))
			}
		}
	}
	if _, err := StreamParts(context.Background(), cfg, gformat.CSR6, nil, nil, 1, io.Discard, nil, nil); err == nil {
		t.Fatal("CSR6 stream accepted")
	}
}

// aheadMeter counts, from outside StreamParts, the bytes buffered ahead
// of the write cursor: everything the parts' encoders have taken (their
// own 64 KiB buffers included) minus what has reached the stream's
// writer. Its chunk callback samples the gap after every written chunk;
// its Write is the stream's writer.
type aheadMeter struct {
	mu      sync.Mutex
	encoded int64
	written int64
	peak    int64
	onWrite func() // called at every Write, if set
	goros   int    // largest goroutine count seen in Write
}

func (m *aheadMeter) chunk(_ int, done Stats) error {
	m.mu.Lock()
	m.encoded += done.BytesWritten
	m.peak = max(m.peak, m.encoded-m.written)
	m.mu.Unlock()
	return nil
}

func (m *aheadMeter) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.onWrite != nil {
		m.onWrite()
	}
	m.goros = max(m.goros, runtime.NumGoroutine())
	m.written += int64(len(p))
	return len(p), nil
}

// TestStreamPartsRunaheadBounded is property (b), the backpressure
// bound, seen from outside StreamParts. The chunk callback holds the
// head part's writer at its first chunk until the other threads have
// drawn every chunk the window lets them draw ahead of it — a counted
// condition: the take order of a run is fixed by its state, not by which
// thread asks, so stallRows says how many rows that is. The destinations
// drawn and not yet reported written must stay within the window and the
// chunk each thread has in hand, as TestChunkSchedulerRunaheadBounded
// holds for the scheduler alone.
func TestStreamPartsRunaheadBounded(t *testing.T) {
	const parts = 3
	threads := min(parts, runtime.GOMAXPROCS(0))
	if threads < 2 {
		t.Skip("one CPU, one thread: a held head holds everything")
	}
	cfg := DefaultConfig(15)
	ranges, err := Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	window := int64(aheadEdges * threads)
	stall := stallRows(cfg, ranges, threads)
	m := newDrawMeter(cfg)
	drawn := func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.scopes
	}
	held := false
	chunk := func(_ int, done Stats) error {
		for deadline := time.Now().Add(10 * time.Second); !held && drawn() < stall; runtime.Gosched() {
			if time.Now().After(deadline) {
				return fmt.Errorf("only %d of %d rows drawn ahead of the held writer", drawn(), stall)
			}
		}
		held = true
		m.mu.Lock()
		m.gap -= done.Edges
		m.mu.Unlock()
		return nil
	}
	w := &aheadMeter{}
	st, err := StreamParts(context.Background(), m, gformat.TSV, ranges, seqIDs(parts), threads, w, nil, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if w.written != st.BytesWritten {
		t.Fatalf("writer saw %d bytes, stats count %d", w.written, st.BytesWritten)
	}
	if st.Edges < 4*window {
		t.Fatalf("%d edges do not exercise a %d-edge window", st.Edges, window)
	}
	if m.gap != 0 {
		t.Fatalf("%d destinations drawn and never reported written", m.gap)
	}
	if m.peak < window/2 {
		t.Fatalf("only %d destinations ever ran ahead, window %d", m.peak, window)
	}
	if bound := window + window/8 + int64(threads)*max(chunkEdges+chunkEdges/8, st.MaxDegree); m.peak > bound {
		t.Fatalf("%d destinations buffered ahead of the writer, bound %d", m.peak, bound)
	}
}

// stallRows is how many rows the threads of an ordered run of src's
// parts draw while part 0's writer is held at its first chunk: that
// chunk, and every chunk the scheduler then hands out before it has
// none to give.
func stallRows(src PartSource, ranges []partition.Range, threads int) int64 {
	writers := make([]gformat.Writer, len(ranges))
	for i := range writers {
		writers[i] = gformat.NewDiscardWriter(gformat.TSV)
	}
	s := openParts(src, ranges, seqIDs(len(ranges)), writers, threads, true, nil, nil)
	var head chunk
	var rows int64
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		_, c, _ := s.next(&head)
		if c == nil {
			return rows
		}
		rows += c.hi - c.lo
	}
}

// TestStreamPartsSingleWorkerIsBatch is property (d): with one worker
// nothing runs ahead of the writer but the encoder's own buffer, and no
// goroutine is started.
func TestStreamPartsSingleWorkerIsBatch(t *testing.T) {
	cfg := DefaultConfig(14)
	ranges, err := Plan(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := &aheadMeter{}
	before := runtime.NumGoroutine()
	st, err := StreamParts(context.Background(), cfg, gformat.ADJ6, ranges, seqIDs(3), 1, m, nil, m.chunk)
	if err != nil {
		t.Fatal(err)
	}
	if m.peak > 1<<16+10+6*st.MaxDegree {
		t.Fatalf("%d bytes buffered ahead of the writer with one worker", m.peak)
	}
	if m.goros > before {
		t.Fatalf("goroutines grew from %d to %d during a one-worker stream", before, m.goros)
	}
}

// TestStreamPartsCancelAndWriteError is property (c): a cancelled
// context or a failing writer ends the stream and is returned as is, and
// nothing is written after it.
func TestStreamPartsCancelAndWriteError(t *testing.T) {
	cfg := DefaultConfig(16)
	ranges, err := Plan(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := StreamParts(context.Background(), cfg, gformat.TSV, ranges, seqIDs(4), 1, io.Discard, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultConfig(8) // each part's bytes fit the encoder's buffer
	smallRanges, err := Plan(small, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		// Cancel at the stream's first write, while the other threads
		// draw ahead.
		ctx, cancel := context.WithCancel(context.Background())
		m := &aheadMeter{onWrite: cancel}
		st, err := StreamParts(ctx, cfg, gformat.TSV, ranges, seqIDs(4), workers, m, nil, m.chunk)
		if err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if st.Edges >= cfg.NumEdges()/2 {
			t.Fatalf("workers %d: %d edges generated after the cancel", workers, st.Edges)
		}

		// A write error in the first part: no write is tried after it.
		f := &fullWriter{n: 1 << 18}
		_, err = StreamParts(context.Background(), cfg, gformat.TSV, ranges, seqIDs(4), workers, f, nil, nil)
		if err != errWriterFull {
			t.Fatalf("workers %d: err = %v, want the writer's error as is", workers, err)
		}
		if f.after != 0 {
			t.Fatalf("workers %d: %d writes after the writer failed", workers, f.after)
		}

		// A write error in a part's last flush, as its encoder closes, is
		// the stream's too: at the end of the stream, and in the first
		// part of one whose parts each reach w only as they close — where
		// no later part may write after it.
		f = &fullWriter{n: int(full.BytesWritten) - 1}
		if _, err = StreamParts(context.Background(), cfg, gformat.TSV, ranges, seqIDs(4), workers, f, nil, nil); err != errWriterFull {
			t.Fatalf("workers %d, failing last flush: err = %v, want the writer's error as is", workers, err)
		}
		f = &fullWriter{}
		if _, err = StreamParts(context.Background(), small, gformat.TSV, smallRanges, seqIDs(4), workers, f, nil, nil); err != errWriterFull {
			t.Fatalf("workers %d, failing first close: err = %v, want the writer's error as is", workers, err)
		}
		if f.after != 0 {
			t.Fatalf("workers %d: %d writes after the first part's close failed", workers, f.after)
		}
	}
}

var errWriterFull = errors.New("writer full")

// fullWriter is an io.Writer that fails after accepting n bytes, and
// counts the writes tried after that.
type fullWriter struct {
	n, after int
}

func (f *fullWriter) Write(p []byte) (int, error) {
	if f.n < 0 {
		f.after++
	}
	if f.n -= len(p); f.n < 0 {
		return 0, errWriterFull
	}
	return len(p), nil
}

// failingSource is cfg whose part `bad` draws, at row `row`, a
// destination outside the 6-byte id range, which the ADJ6 encoder
// refuses; it records which parts settled.
type failingSource struct {
	Config
	bad     int
	row     int64
	mu      sync.Mutex
	settled map[int]bool
}

func (f *failingSource) OpenPart(id int, r partition.Range) (Part, error) {
	p, err := f.Config.OpenPart(id, r)
	if err != nil {
		return p, err
	}
	p.Settled = func(_ Stats, err error, _ *telemetry.Registry) error {
		f.mu.Lock()
		f.settled[id] = true
		f.mu.Unlock()
		return err
	}
	if id != f.bad {
		return p, nil
	}
	build := p.NewScoper
	p.NewScoper = func(set *avs.DedupSet, acct *memacct.Acct) (Scoper, error) {
		scope, err := build(set, acct)
		if err != nil {
			return nil, err
		}
		return func(u int64, src *rng.Source, buf []int64) ([]int64, int64) {
			dsts, attempts := scope(u, src, buf)
			if u == f.row {
				dsts = append(dsts, gformat.MaxVertexID+1)
			}
			return dsts, attempts
		}, nil
	}
	return p, nil
}

// TestStreamPartsFailureStopsLaterParts is the ordering rule where it
// can break: the middle one of three parts fails halfway, after some of
// its chunks are written. The failure comes back as is, the stream holds
// part 0 whole and a proper prefix of part 1 — not one byte of part 2 —
// and part 2 never settles, so its writer is never closed.
func TestStreamPartsFailureStopsLaterParts(t *testing.T) {
	cfg := DefaultConfig(14)
	ranges, parts, full, _ := planParts(t, cfg, 3, gformat.ADJ6)
	row := (ranges[1].Lo + ranges[1].Hi) / 2
	wantErr := fmt.Sprintf("gformat: vertex ID %d outside 6-byte range", int64(gformat.MaxVertexID+1))
	for _, workers := range []int{1, 3} {
		src := &failingSource{Config: cfg, bad: 1, row: row, settled: map[int]bool{}}
		var got bytes.Buffer
		_, err := StreamParts(context.Background(), src, gformat.ADJ6, ranges, seqIDs(3), workers, &got, nil, nil)
		if err == nil || err.Error() != wantErr {
			t.Fatalf("workers %d: err = %v, want %q as is", workers, err, wantErr)
		}
		if !bytes.HasPrefix(full, got.Bytes()) {
			t.Fatalf("workers %d: the %d streamed bytes are not a prefix of the stream", workers, got.Len())
		}
		if got.Len() <= len(parts[0]) || got.Len() >= len(parts[0])+len(parts[1]) {
			t.Fatalf("workers %d: %d bytes streamed, want part 0's %d and a proper prefix of part 1's %d", workers, got.Len(), len(parts[0]), len(parts[1]))
		}
		if !src.settled[0] || src.settled[2] {
			t.Fatalf("workers %d: settled parts %v, want part 0 and never part 2", workers, src.settled)
		}
	}
}

// BenchmarkStreamParts times StreamParts on a Scale-16 classic plan, TSV
// into io.Discard, in edges per second: parts=1 is one part the threads
// share, parts=8 adds the ordered hand-off from part to part.
func BenchmarkStreamParts(b *testing.B) {
	cfg := DefaultConfig(16)
	for _, parts := range []int{1, 8} {
		ranges, err := Plan(cfg, parts)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("parts=%d/workers=%d", parts, workers), func(b *testing.B) {
				var edges int64
				for i := 0; i < b.N; i++ {
					st, err := StreamParts(context.Background(), cfg, gformat.TSV, ranges, seqIDs(parts), workers, io.Discard, nil, nil)
					if err != nil {
						b.Fatal(err)
					}
					edges += st.Edges
				}
				b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}
