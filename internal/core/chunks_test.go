package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/avs"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
)

// drawMeter watches the chunk scheduler from outside: as a PartSource
// it wraps every Scoper the threads build, as a sink decoration every
// writer. A thread lends all its Scopers the one duplicate filter, so
// the filter's address names the thread.
type drawMeter struct {
	PartSource
	mu       sync.Mutex
	attempts map[*avs.DedupSet]int64 // per thread
	rows     []int64                 // attempts by local row, if non-nil
	// gap counts destinations drawn and not yet handed to a writer: what
	// the run-ahead buffers hold, plus the scope a head thread is about to
	// write. peak is its high-water mark.
	gap, peak int64
}

func newDrawMeter(src PartSource) *drawMeter {
	return &drawMeter{PartSource: src, attempts: map[*avs.DedupSet]int64{}}
}

func (m *drawMeter) OpenPart(id int, r partition.Range) (Part, error) {
	p, err := m.PartSource.OpenPart(id, r)
	if err != nil {
		return p, err
	}
	build := p.NewScoper
	p.NewScoper = func(set *avs.DedupSet, acct *memacct.Acct) (Scoper, error) {
		scope, err := build(set, acct)
		if err != nil {
			return nil, err
		}
		return func(u int64, src *rng.Source, buf []int64) ([]int64, int64) {
			dsts, attempts := scope(u, src, buf)
			m.mu.Lock()
			m.attempts[set] += attempts
			if m.rows != nil {
				m.rows[u] = attempts
			}
			m.gap += int64(len(dsts))
			m.peak = max(m.peak, m.gap)
			m.mu.Unlock()
			return dsts, attempts
		}, nil
	}
	return p, nil
}

func (m *drawMeter) sinks(inner SinkFactory) SinkFactory {
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		w, err := inner(worker, r)
		return drawMeterWriter{w, m}, err
	}
}

type drawMeterWriter struct {
	gformat.Writer
	m *drawMeter
}

func (w drawMeterWriter) WriteScope(src int64, dsts []int64) error {
	w.m.mu.Lock()
	w.m.gap -= int64(len(dsts))
	w.m.mu.Unlock()
	return w.Writer.WriteScope(src, dsts)
}

// imbalance is the busiest thread's attempts over the mean of `threads`.
func (m *drawMeter) imbalance(threads int) float64 {
	var most, total int64
	for _, n := range m.attempts {
		most = max(most, n)
		total += n
	}
	return float64(most) * float64(threads) / float64(total)
}

// TestChunkSchedulerBalancesAttempts is the point of the scheduler, on
// counted work only. On the batch-dense shape of BENCHMARK.json (Scale
// 13, edge factor 128, 2 parts) the popcount-0 and popcount-1 rows fill
// nearly every cell and hit the rejection cap, and the plan puts twelve
// of the fourteen in one part: a thread bound to that part draws 1.59
// times the mean attempts. The rows' attempts are measured in one real
// pass; the scheduler is then driven by two threads on a virtual clock
// that a drawn attempt advances by one — take and finish for real, no
// goroutines, nothing the host's load can shift — and the busier thread
// must end within 15 % of the mean.
func TestChunkSchedulerBalancesAttempts(t *testing.T) {
	const threads = 2
	cfg := denseConfig(13, 128)
	ranges, err := Plan(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	m := newDrawMeter(cfg)
	m.rows = make([]int64, cfg.NumVertices())
	whole := []partition.Range{{Lo: 0, Hi: cfg.NumVertices()}}
	if _, err := GenerateParts(m, whole, seqIDs(1), DiscardSinks(gformat.ADJ6), nil); err != nil {
		t.Fatal(err)
	}
	attempts := func(lo, hi int64) (n int64) {
		for _, a := range m.rows[lo:hi] {
			n += a
		}
		return n
	}
	total := attempts(0, cfg.NumVertices())
	if static := float64(threads*attempts(ranges[0].Lo, ranges[0].Hi)) / float64(total); static < 1.5 {
		t.Fatalf("the first part holds %.2f times the mean attempts: the plan is not skewed enough to test balancing", static)
	}

	writers := make([]gformat.Writer, threads)
	for i := range writers {
		writers[i] = gformat.NewDiscardWriter(gformat.ADJ6)
	}
	s := openParts(cfg, ranges, seqIDs(threads), writers, threads, nil)
	type thread struct {
		clock, drew int64
		p           *partRun
		c           *chunk
		head        chunk
		done        bool
	}
	ths := make([]thread, threads)
	for {
		// The next event: the thread furthest behind, one holding a chunk
		// (it finishes it) before one that waits at the same instant.
		var th *thread
		for i := range ths {
			o := &ths[i]
			if !o.done && (th == nil || o.clock < th.clock || o.clock == th.clock && o.c != nil && th.c == nil) {
				th = o
			}
		}
		if th == nil {
			break
		}
		if th.c != nil {
			s.finish(th.p, th.c, Stats{}, 0, 0, nil)
		}
		s.mu.Lock()
		var more bool
		th.p, th.c, more = s.next(&th.head)
		s.mu.Unlock()
		switch {
		case th.c != nil:
			n := attempts(th.c.lo, th.c.hi)
			th.clock += n
			th.drew += n
		case !more:
			th.done = true
		default:
			// Nothing to take until some chunk in flight is finished.
			wake := int64(-1)
			for i := range ths {
				if o := &ths[i]; o.c != nil && (wake < 0 || o.clock < wake) {
					wake = o.clock
				}
			}
			if wake < 0 {
				t.Fatal("a thread waits and no chunk is in flight")
			}
			th.clock = max(th.clock, wake)
		}
	}
	var most, sum, end int64
	for _, th := range ths {
		most = max(most, th.drew)
		sum += th.drew
		end = max(end, th.clock)
	}
	if sum != total {
		t.Fatalf("threads drew %d attempts of %d", sum, total)
	}
	if got := float64(most*threads) / float64(sum); got > 1.15 {
		t.Fatalf("busiest thread drew %.3f times the mean attempts, want at most 1.15", got)
	} else {
		t.Logf("busiest thread drew %.3f times the mean attempts; makespan %.3f of ideal", got, float64(end*threads)/float64(sum))
	}
}

// TestChunkSchedulerRunaheadBounded holds the writer of the part with
// the hub rows at its first scope until the other threads have run as
// far ahead as they will, and counts what they buffered: never more
// expected edges than the window, so never more destinations than the
// window plus one scope in a head thread's hands. One thread buffers
// nothing at all.
func TestChunkSchedulerRunaheadBounded(t *testing.T) {
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

	m := newDrawMeter(cfg)
	var closed sync.WaitGroup // the parts behind the held one
	closed.Add(parts - 1)
	sinks := func(worker int, r partition.Range) (gformat.Writer, error) {
		return &heldWriter{Writer: gformat.NewDiscardWriter(gformat.ADJ6), first: worker == 0, closed: &closed}, nil
	}
	st, err := GenerateParts(m, ranges, seqIDs(parts), m.sinks(sinks), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges < 4*window {
		t.Fatalf("%d edges do not exercise a %d-edge window", st.Edges, window)
	}
	// While part 0's writer was held, every other part was drawn and
	// closed: whatever could run ahead of it did.
	if m.peak < chunkEdges/2 {
		t.Fatalf("only %d destinations ever ran ahead: no chunk was drawn behind the held head", m.peak)
	}
	if bound := window + window/8 + st.MaxDegree; m.peak > bound {
		t.Fatalf("%d destinations buffered ahead of the writers, bound %d", m.peak, bound)
	}

	one := newDrawMeter(cfg)
	st, err = GenerateParts(one, []partition.Range{{Lo: 0, Hi: cfg.NumVertices()}}, seqIDs(1), one.sinks(DiscardSinks(gformat.ADJ6)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.peak != st.MaxDegree || len(one.attempts) != 1 {
		t.Fatalf("one thread: %d destinations in hand at once (largest scope %d), %d threads drew", one.peak, st.MaxDegree, len(one.attempts))
	}
}

// heldWriter is a sink that blocks: the first part's refuses its first
// scope until every other part has been closed.
type heldWriter struct {
	gformat.Writer
	first  bool
	held   bool
	closed *sync.WaitGroup
}

func (w *heldWriter) WriteScope(src int64, dsts []int64) error {
	if w.first && !w.held {
		w.held = true
		w.closed.Wait()
	}
	return w.Writer.WriteScope(src, dsts)
}

func (w *heldWriter) Close() error {
	if !w.first {
		w.closed.Done()
	}
	return w.Writer.Close()
}

var errSinkFull = errors.New("sink full")

// breakingWriter fails its n-th scope, and is told when it is closed.
type breakingWriter struct {
	gformat.Writer
	n      int
	closed *bool
}

func (w *breakingWriter) WriteScope(src int64, dsts []int64) error {
	if w.n--; w.n == 0 {
		return errSinkFull
	}
	return w.Writer.WriteScope(src, dsts)
}

func (w *breakingWriter) Close() error {
	*w.closed = true
	return w.Writer.Close()
}

// TestChunkSchedulerFailedAndBlockedParts: a sink that fails mid-part
// abandons its part unclosed and a sink that blocks stalls only its own
// part — the siblings of both are written in full, the first error in
// part order is the one returned, and no goroutine outlives the call.
func TestChunkSchedulerFailedAndBlockedParts(t *testing.T) {
	const parts = 4
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("one CPU, one thread: a held head holds everything")
	}
	cfg := DefaultConfig(14)
	ranges, err := Plan(cfg, parts)
	if err != nil {
		t.Fatal(err)
	}
	var want [parts]bytes.Buffer
	for i := range ranges {
		if _, err := GenerateRanges(cfg, ranges[i:i+1], bufferSinks(want[i:i+1], gformat.TSV)); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	var got [parts]bytes.Buffer
	var closedParts [parts]bool
	var sibling sync.WaitGroup // part 2, which part 0 waits for
	sibling.Add(1)
	inner := bufferSinks(got[:], gformat.TSV)
	_, err = GenerateParts(cfg, ranges, seqIDs(parts), func(worker int, r partition.Range) (gformat.Writer, error) {
		w, err := inner(worker, r)
		switch worker {
		case 0: // blocks at its first scope until part 2 is closed
			return &heldWriter{Writer: w, first: true, closed: &sibling}, err
		case 1, 3: // fail in the middle
			rows := int(r.Hi - r.Lo)
			return &breakingWriter{Writer: w, n: rows / 2, closed: &closedParts[worker]}, err
		default:
			return &heldWriter{Writer: w, closed: &sibling}, err
		}
	}, nil)
	if !errors.Is(err, errSinkFull) || !strings.Contains(err.Error(), "worker 1:") {
		t.Fatalf("err = %v, want part 1's %v", err, errSinkFull)
	}
	for _, i := range []int{0, 2} {
		if !bytes.Equal(got[i].Bytes(), want[i].Bytes()) {
			t.Errorf("part %d: %d bytes beside a failed and a blocked part, want %d", i, got[i].Len(), want[i].Len())
		}
	}
	for _, i := range []int{1, 3} {
		if closedParts[i] {
			t.Errorf("failed part %d was closed", i)
		}
		if !bytes.HasPrefix(want[i].Bytes(), got[i].Bytes()) || got[i].Len() == want[i].Len() {
			t.Errorf("failed part %d: its %d bytes are not a proper prefix of the part's %d", i, got[i].Len(), want[i].Len())
		}
	}
	// The threads are joined before GenerateParts returns; give the
	// runtime a moment to retire them.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the run, %d before", n, before)
	}
}

// bufferSinks writes part i into bufs[i] in the given format.
func bufferSinks(bufs []bytes.Buffer, format gformat.Format) SinkFactory {
	return func(worker int, _ partition.Range) (gformat.Writer, error) {
		if format == gformat.TSV {
			return gformat.NewTSVWriter(&bufs[worker]), nil
		}
		return gformat.NewADJ6Writer(&bufs[worker]), nil
	}
}
