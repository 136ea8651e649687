package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
)

// planSchedule is a StreamParts schedule over cfg's own plan.
func planSchedule(t *testing.T, cfg Config, parts int) ([]partition.Range, func() (int, partition.Range, bool)) {
	t.Helper()
	ranges, err := Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	return ranges, func() (int, partition.Range, bool) {
		if i == len(ranges) {
			return 0, partition.Range{}, false
		}
		i++
		return i - 1, ranges[i-1], true
	}
}

// TestStreamPartsConcatenatesParts is property (a): whatever the worker
// count, the stream is each part generated alone, in schedule order.
func TestStreamPartsConcatenatesParts(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.NoiseParam = 0.1
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
		ranges, _ := planSchedule(t, cfg, 7)
		var want bytes.Buffer
		var edges int64
		for i := range ranges {
			st, err := GenerateRanges(cfg, ranges[i:i+1], func(int, partition.Range) (gformat.Writer, error) {
				if format == gformat.TSV {
					return gformat.NewTSVWriter(&want), nil
				}
				return gformat.NewADJ6Writer(&want), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			edges += st.Edges
		}
		for _, workers := range []int{0, 1, 3, 16} {
			_, next := planSchedule(t, cfg, 7)
			var got bytes.Buffer
			st, err := StreamParts(context.Background(), cfg, format, next, workers, &got, nil)
			if err != nil {
				t.Fatalf("%v workers %d: %v", format, workers, err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v workers %d: %d streamed bytes differ from the %d part bytes concatenated", format, workers, got.Len(), want.Len())
			}
			if st.Edges != edges || st.BytesWritten != int64(want.Len()) || st.PeakWorkerBytes == 0 {
				t.Fatalf("%v workers %d: stats %+v, want %d edges in %d bytes", format, workers, st, edges, want.Len())
			}
		}
	}
	if _, err := StreamParts(context.Background(), cfg, gformat.CSR6, nil, 1, io.Discard, nil); err == nil {
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
	moved   sync.Cond     // a part's encoded count advanced
	encoded map[int]int64 // by part id
	written int64
	peak    int64
	hold    func(m *aheadMeter) bool // Write waits while this holds (mu held)
	goros   int                      // largest goroutine count seen in Write
}

func newAheadMeter(hold func(*aheadMeter) bool) *aheadMeter {
	m := &aheadMeter{encoded: map[int]int64{}, hold: hold}
	m.moved.L = &m.mu
	return m
}

func (m *aheadMeter) chunk(id int, done Stats) error {
	m.mu.Lock()
	m.encoded[id] += done.BytesWritten
	var total int64
	for _, n := range m.encoded {
		total += n
	}
	m.peak = max(m.peak, total-m.written)
	m.moved.Broadcast()
	m.mu.Unlock()
	return nil
}

func (m *aheadMeter) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.hold != nil && m.hold(m) {
		m.moved.Wait()
	}
	m.goros = max(m.goros, runtime.NumGoroutine())
	m.written += int64(len(p))
	return len(p), nil
}

// runningAhead reports how many parts have encoded at least n bytes.
func (m *aheadMeter) runningAhead(n int64) (parts int) {
	for _, b := range m.encoded {
		if b >= n {
			parts++
		}
	}
	return parts
}

// TestStreamPartsRunaheadBounded is property (b), the backpressure
// bound. The stream's writer refuses its first byte — parking the head
// part — until every other worker holds a part that has encoded half a
// slot, which a run-ahead part always reaches, since a slot holds twice
// that. The parts, each several slots long, are thereby given every
// chance to run ahead; the counted high-water mark of bytes ahead of
// the writer must stay within one slot and one encoder buffer per
// worker.
func TestStreamPartsRunaheadBounded(t *testing.T) {
	const workers, encoderBuf = 3, 1 << 16
	cfg := DefaultConfig(16)
	ranges, next := planSchedule(t, cfg, 4)
	released := false
	m := newAheadMeter(func(m *aheadMeter) bool {
		released = released || m.runningAhead(slotCap/2) >= workers-1
		return !released
	})
	st, err := StreamParts(context.Background(), cfg, gformat.TSV, next, workers, m, m.chunk)
	if err != nil {
		t.Fatal(err)
	}
	if mean := st.BytesWritten / int64(len(ranges)); mean < 2*slotCap {
		t.Fatalf("parts of about %d bytes do not exercise a %d-byte slot", mean, slotCap)
	}
	if m.written != st.BytesWritten {
		t.Fatalf("writer saw %d bytes, stats count %d", m.written, st.BytesWritten)
	}
	// One scope of slack, as when the gap was sampled after every scope:
	// sampled after every chunk, it can only be lower.
	if bound := int64(workers*(slotCap+encoderBuf)) + 12*st.MaxDegree; m.peak > bound {
		t.Fatalf("%d bytes buffered ahead of the writer, bound %d", m.peak, bound)
	}
	if m.peak < slotCap {
		t.Fatalf("only %d bytes ever ran ahead: the parts did not run in parallel", m.peak)
	}
}

// TestStreamPartsSingleWorkerIsBatch is property (d): with one worker
// nothing runs ahead of the writer but the encoder's own buffer, and no
// goroutine is started.
func TestStreamPartsSingleWorkerIsBatch(t *testing.T) {
	cfg := DefaultConfig(14)
	_, next := planSchedule(t, cfg, 3)
	m := newAheadMeter(nil)
	before := runtime.NumGoroutine()
	st, err := StreamParts(context.Background(), cfg, gformat.ADJ6, next, 1, m, m.chunk)
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
// context or a failing writer ends the stream — parts parked on their
// turn included — and is returned as is.
func TestStreamPartsCancelAndWriteError(t *testing.T) {
	cfg := DefaultConfig(16)
	for _, workers := range []int{1, 3} {
		// Cancel from inside the held writer, once the head part is parked
		// there and every other worker's part is well into its slot.
		ctx, cancel := context.WithCancel(context.Background())
		_, next := planSchedule(t, cfg, 4)
		m := newAheadMeter(func(m *aheadMeter) bool {
			if m.runningAhead(slotCap/2) >= workers-1 {
				cancel()
				return false
			}
			return true
		})
		st, err := StreamParts(ctx, cfg, gformat.TSV, next, workers, m, m.chunk)
		if err != context.Canceled {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if st.Edges >= cfg.NumEdges()/2 {
			t.Fatalf("workers %d: %d edges generated after the cancel", workers, st.Edges)
		}

		// A write error in the first part: every worker's first part is
		// also its last.
		_, next = planSchedule(t, cfg, 4)
		taken := 0
		_, err = StreamParts(context.Background(), cfg, gformat.TSV, func() (int, partition.Range, bool) {
			taken++
			return next()
		}, workers, &fullWriter{n: slotCap / 4}, nil)
		if err != errWriterFull {
			t.Fatalf("workers %d: err = %v, want the writer's error as is", workers, err)
		}
		if taken != workers {
			t.Fatalf("workers %d: %d parts taken around a write error in the first", workers, taken)
		}
	}
}

var errWriterFull = errors.New("writer full")

// fullWriter is an io.Writer that fails after accepting n bytes.
type fullWriter struct{ n int }

func (f *fullWriter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errWriterFull
	}
	return len(p), nil
}
