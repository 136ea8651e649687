package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// chunkTally merges the deltas a ChunkFunc is told of, per part id and
// in all.
type chunkTally struct {
	mu     sync.Mutex
	calls  int
	all    Stats
	byPart map[int]Stats
}

func (c *chunkTally) chunk(id int, done Stats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byPart == nil {
		c.byPart = map[int]Stats{}
	}
	c.calls++
	c.all.merge(done)
	part := c.byPart[id]
	part.merge(done)
	c.byPart[id] = part
	return nil
}

// sameCounts reports whether two Stats agree on every counted field.
func sameCounts(a, b Stats) bool {
	return a.Scopes == b.Scopes && a.Edges == b.Edges && a.Attempts == b.Attempts &&
		a.BytesWritten == b.BytesWritten && a.MaxDegree == b.MaxDegree && a.PeakWorkerBytes == b.PeakWorkerBytes
}

// TestChunkSettleSumsToStats: the deltas the chunk callback is told of
// merge exactly to the Stats RunParts and StreamParts return, with one
// thread or worker and with three, every row is counted once, and the
// registry's run totals are the same numbers, streamed or not.
func TestChunkSettleSumsToStats(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.NoiseParam = 0.1
	ranges, err := Plan(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 3} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
			var tally chunkTally
			tel := telemetry.NewRegistry()
			dir := t.TempDir()
			st, err := RunParts(cfg, dir, gformat.TSV, ranges, seqIDs(3), nil, tel, PartSinkOptions{}, tally.chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCounts(tally.all, st) || st.Scopes != cfg.NumVertices() {
				t.Fatalf("%d threads: %d chunks merge to %+v, RunParts returned %+v over %d rows", threads, tally.calls, tally.all, st, cfg.NumVertices())
			}
			if tally.calls <= len(ranges) {
				t.Fatalf("%d threads: %d chunks for %d parts: nothing was cut", threads, tally.calls, len(ranges))
			}
			for i := range ranges {
				if size := int64(len(readFile(t, PartPath(dir, gformat.TSV, i)))); tally.byPart[i].BytesWritten != size {
					t.Fatalf("%d threads: part %d told of %d bytes, its file has %d", threads, i, tally.byPart[i].BytesWritten, size)
				}
			}
			for name, want := range map[string]int64{MetricScopes: st.Scopes, MetricEdges: st.Edges, MetricAttempts: st.Attempts, MetricBytes: st.BytesWritten} {
				if got := tel.CounterValue(name); got != want {
					t.Fatalf("%d threads: %s = %d, stats %d", threads, name, got, want)
				}
			}
		}()
	}

	ranges, err = Plan(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		var tally chunkTally
		var out bytes.Buffer
		tel := telemetry.NewRegistry()
		st, err := StreamParts(context.Background(), cfg, gformat.ADJ6, ranges, seqIDs(5), workers, &out, tel, tally.chunk)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCounts(tally.all, st) || st.Scopes != cfg.NumVertices() || st.BytesWritten != int64(out.Len()) {
			t.Fatalf("%d workers: chunks merge to %+v, StreamParts returned %+v over %d rows in %d bytes", workers, tally.all, st, cfg.NumVertices(), out.Len())
		}
		for name, want := range map[string]int64{MetricScopes: st.Scopes, MetricEdges: st.Edges, MetricAttempts: st.Attempts, MetricBytes: st.BytesWritten} {
			if got := tel.CounterValue(name); got != want {
				t.Fatalf("%d workers: streamed %s = %d, stats %d", workers, name, got, want)
			}
		}
	}
}

// TestChunkSettleAdvancesRegistryMidPart: a part's run totals reach the
// registry as its chunks are written, not when it closes. The writer of
// a one-part run is held at a row halfway through; by then the edge
// total must count the whole chunks written before the held one —
// exactly those the callback was told of — and none of the rest.
func TestChunkSettleAdvancesRegistryMidPart(t *testing.T) {
	cfg := DefaultConfig(12)
	whole := []partition.Range{{Lo: 0, Hi: cfg.NumVertices()}}
	held := &rowHeldWriter{Writer: gformat.NewDiscardWriter(gformat.ADJ6), row: cfg.NumVertices() / 2,
		reached: make(chan struct{}), release: make(chan struct{})}
	var tally chunkTally
	tel := telemetry.NewRegistry()
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result)
	go func() {
		st, err := generateParts(cfg, whole, seqIDs(1), func(int, partition.Range) (gformat.Writer, error) { return held, nil }, tel, tally.chunk)
		done <- result{st, err}
	}()
	<-held.reached
	mid := tel.CounterValue(MetricEdges)
	tally.mu.Lock()
	told, calls := tally.all.Edges, tally.calls
	tally.mu.Unlock()
	taken := held.EdgesWritten()
	close(held.release)
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if held.closes != 1 {
		t.Fatalf("writer closed %d times", held.closes)
	}
	if calls < 2 || mid != told {
		t.Fatalf("held mid-part: edges_total %d after %d chunks told of %d edges", mid, calls, told)
	}
	if mid > taken || mid >= res.st.Edges {
		t.Fatalf("held mid-part: edges_total %d, the writer had taken %d of the part's %d", mid, taken, res.st.Edges)
	}
	if got := tel.CounterValue(MetricEdges); got != res.st.Edges {
		t.Fatalf("edges_total %d after Close, stats %d", got, res.st.Edges)
	}
}

// rowHeldWriter blocks at the scope of one row until released, and
// counts its Close calls.
type rowHeldWriter struct {
	gformat.Writer
	row              int64
	reached, release chan struct{}
	closes           int
}

func (w *rowHeldWriter) WriteScope(src int64, dsts []int64) error {
	if src == w.row {
		close(w.reached)
		<-w.release
	}
	return w.Writer.WriteScope(src, dsts)
}

func (w *rowHeldWriter) Close() error {
	w.closes++
	return w.Writer.Close()
}

var errTooFar = errors.New("told of one chunk too many")

// TestChunkSettleErrorFailsPart: a callback error fails its part under
// atomic sinks — no final file, only the .tmp litter a crash would
// leave — and is returned, while the sibling parts complete.
func TestChunkSettleErrorFailsPart(t *testing.T) {
	cfg := DefaultConfig(14)
	ranges, err := Plan(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var mu sync.Mutex
	told := 0
	_, err = RunParts(cfg, dir, gformat.TSV, ranges, seqIDs(3), nil, telemetry.NewRegistry(), PartSinkOptions{}, func(id int, _ Stats) error {
		mu.Lock()
		defer mu.Unlock()
		if id != 1 {
			return nil
		}
		if told++; told == 2 {
			return errTooFar
		}
		return nil
	})
	if !errors.Is(err, errTooFar) {
		t.Fatalf("err = %v, want part 1's %v", err, errTooFar)
	}
	if told != 2 {
		t.Fatalf("part 1 told of %d chunks after failing on its second", told)
	}
	final := PartPath(dir, gformat.TSV, 1)
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("failed part published: %v", err)
	}
	if litter, _ := filepath.Glob(filepath.Join(dir, "part-*.tmp")); len(litter) != 1 || litter[0] != final+".tmp" {
		t.Fatalf("temp files %v, want only the failed part's", litter)
	}
	for _, i := range []int{0, 2} {
		if err := CheckPart(PartPath(dir, gformat.TSV, i), gformat.TSV); err != nil {
			t.Fatalf("sibling part %d: %v", i, err)
		}
	}
}
