package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/avs"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The part executor. Every runtime that turns a PartSource into part
// files in a directory — batch resume, the community layout, a dist
// worker's lease, a swarm worker's claim — runs the same sequence:
//
//	ResumeParts: Plan → EnsureManifest → SweepTemps → MissingParts → RunParts
//	RunParts:    store fetch → (atomic+digest → ingest → observed) sinks → GenerateParts
//
// and every runtime that turns one into a single ordered byte stream —
// the server's jobs, the facade's StreamRange — runs
//
//	StreamParts: take parts in order → drawParts → encoder → the part's turn on w
//
// It is written once here because the determinism contract makes the
// outputs identical by construction; the callers differ only in which
// parts they ask for and when.

// GenerateParts executes the named parts of src and merges their stats.
// Parts are output units, threads are scheduling units: a thread per
// part, up to GOMAXPROCS — the only fan-out in this package — share the
// rows of all the parts a chunk at a time (drawParts), so a part of
// near-full hub rows does not leave another thread idle, while every part's
// writer sees its scopes in row order, one call at a time, whichever
// thread drew them. sinks is keyed by position: part ids[i] writes
// through sinks(i, ranges[i]). The SinkFactory contract holds for every
// source: writers are opened serially, in part order, before any part
// draws, and a factory error aborts before the first draw. Per-part
// errors do not cancel sibling parts (each part is independently useful
// and independently resumable); the first error in part order is
// returned, attributed to its position, after all parts settle.
func GenerateParts(src PartSource, ranges []partition.Range, ids []int, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	if len(ranges) == 0 {
		return Stats{}, fmt.Errorf("core: no ranges to generate")
	}
	if len(ranges) != len(ids) {
		return Stats{}, fmt.Errorf("core: %d ranges but %d part ids", len(ranges), len(ids))
	}
	out := Stats{Ranges: ranges}
	writers := make([]gformat.Writer, len(ranges))
	for i, r := range ranges {
		w, err := sinks(i, r)
		if err != nil {
			return out, err
		}
		writers[i] = w
	}

	start := time.Now()
	parts := drawParts(src, ranges, ids, writers, tel)
	out.GenDuration = time.Since(start)
	out.Elapsed = out.GenDuration

	for _, p := range parts {
		out.merge(p.stats)
	}
	for i, p := range parts {
		if p.err != nil {
			return out, fmt.Errorf("core: worker %d: %w", i, p.err)
		}
	}
	return out, nil
}

// A chunk is the scheduling unit: a run of consecutive rows of one part
// holding about chunkEdges expected edges — at least one row, at most
// chunkEdges rows — cut on demand by CutRows from the part's closed
// form. aheadEdges is how far, in expected edges per thread, chunks may
// be drawn ahead of their part's writer: four chunks,
// so that behind a head stalled on a near-full hub row a thread can draw
// the next hub row (itself over a chunk's worth) and the light rows on
// either side of it before it has to look to another part.
const (
	chunkEdges = 8 << 10
	aheadEdges = 4 * chunkEdges
)

// chunk is a run of rows [lo, hi) of one part, taken by one thread. The
// chunk at the head of its part's queue when it was taken writes each
// scope through as it is drawn; one taken behind another is drawn ahead
// into lens and dsts (row lo+i has lens[i] destinations, flat in dsts)
// and written when every chunk before it has been. The buffers are
// reused from chunk to chunk, and from run to run, through aheadChunks.
type chunk struct {
	lo, hi int64
	ahead  bool
	cost   int64 // charged against the window while an ahead chunk is unwritten
	drawn  bool
	lens   []int32
	dsts   []int64
}

// aheadChunks recycles the buffers of chunks drawn ahead: a run needs at
// most a window's worth at once, and a process that generates again and
// again (a server, a swarm worker) would otherwise allocate them anew
// each time. A chunk's edges scatter around its expectation; an eighth
// over is a dozen standard deviations at this size.
var aheadChunks = sync.Pool{New: func() any {
	return &chunk{dsts: make([]int64, 0, chunkEdges+chunkEdges/8)}
}}

// write replays a chunk drawn ahead into its part's writer.
func (c *chunk) write(w gformat.Writer) error {
	dsts := c.dsts
	for i, n := range c.lens {
		if err := w.WriteScope(c.lo+int64(i), dsts[:n:n]); err != nil {
			return err
		}
		dsts = dsts[n:]
	}
	return nil
}

// partRun is one part in flight. Everything but the writer is guarded by
// the scheduler's mutex; the writer belongs to whichever thread holds
// the head of queue, and passes from thread to thread under that mutex.
type partRun struct {
	Part
	w     gformat.Writer
	tw    *timedWriter // w, when a registry is attached
	next  int64        // first row not yet cut into a chunk; Hi when none is left or the part failed
	cut   int64        // end of the next chunk, 0 until computed
	cost  int64        // and its cost
	queue []*chunk     // taken and not yet written, in row order
	stats Stats
	err   error
	// built and drew sum, over threads, the time spent building this
	// part's Scopers and drawing its chunks.
	built, drew time.Duration
}

// chunkSched hands the rows of a set of parts to threads. A thread asks
// for work with take and reports it with finish; nothing else is shared.
type chunkSched struct {
	tel *telemetry.Registry

	mu     sync.Mutex
	room   sync.Cond // a chunk was written, a queue emptied or a part ran out of rows
	parts  []*partRun
	first  int   // parts before this one have no rows left to cut
	ahead  int64 // summed cost of the unwritten ahead chunks
	window int64 // its bound
}

// drawParts is Algorithm 4's outer loop, written once for every
// PartSource and every runtime: it draws the rows of the opened parts
// and writes part i's scopes into writers[i], in row order, closing the
// writer after the last; a part that fails — to open, to build a Scoper,
// to write — is abandoned unclosed, so under atomic sinks it is never
// renamed into place, and its error is kept in part order.
//
// min(len(ranges), GOMAXPROCS) threads — drawing is CPU-bound, and a
// thread keeps O(d_max) of warm storage, so parts beyond the CPUs get no
// thread of their own — take chunks cooperatively: each takes the next
// chunk of the first part that still has rows and either has no chunk in
// flight — the thread then holds the part's head and calls its writer
// scope by scope — or fits the run-ahead window, in which case the chunk
// is drawn into a buffer and handed to the writer when its turn comes,
// by the thread that finishes the chunk before it or by its own, which-
// ever is later. Scope (seed, row) is a pure function, so which thread
// draws a row changes nothing the writer sees. Taking chunks in part
// order, not own part first, is what keeps threads busy: a thread whose
// part is exhausted, or whose way is barred by a full window behind a
// hub row, always has the next part's head to fall back on. The window
// holds aheadEdges expected edges per thread; a chunk that
// alone exceeds it (one huge row) is only ever drawn at the head. So
// extra memory is O(threads · (d_max + chunk)), and with one thread
// every chunk is a head chunk: nothing is buffered, no goroutine starts.
//
// With a registry, a part records once, as it settles: the recvec-build,
// scope-draw and sink-write stages (thread-time sums, the writer's calls
// timed locally so the hot loop never touches shared state) and the
// scope, edge, attempt and byte counters.
func drawParts(src PartSource, ranges []partition.Range, ids []int, writers []gformat.Writer, tel *telemetry.Registry) []*partRun {
	threads := min(len(ranges), runtime.GOMAXPROCS(0))
	s := openParts(src, ranges, ids, writers, threads, tel)
	if threads == 1 {
		s.work()
		return s.parts
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	wg.Wait()
	return s.parts
}

// openParts opens every part for a scheduler that `threads` threads will
// work; a part with no rows settles here.
func openParts(src PartSource, ranges []partition.Range, ids []int, writers []gformat.Writer, threads int, tel *telemetry.Registry) *chunkSched {
	s := &chunkSched{tel: tel, parts: make([]*partRun, len(ranges))}
	s.room.L = &s.mu
	s.window = aheadEdges * int64(threads)
	for i, r := range ranges {
		p := &partRun{w: writers[i]}
		s.parts[i] = p
		part, err := src.OpenPart(ids[i], r)
		if err != nil {
			p.err = err // no rows: nothing of it is ever taken
			continue
		}
		p.Part, p.next = part, part.Lo
		if tel != nil {
			p.tw = &timedWriter{Writer: p.w, rate: tel.RateGauge(MetricEdgesPerSec, 0)}
			p.w = p.tw
		}
		if p.Lo >= p.Hi {
			s.settle(p)
		}
	}
	return s
}

// work is one thread: it owns the storage worth keeping warm between
// chunks — the scope buffer, the duplicate filter it lends every Scoper
// it builds, the Scoper of the part it drew from last.
func (s *chunkSched) work() {
	var (
		of    *partRun // the part scope was built for
		scope Scoper
		set   avs.DedupSet
		acct  memacct.Acct
		buf   []int64
		src   rng.Source // reseeded per scope: no allocation per vertex
		head  chunk
	)
	for {
		p, c := s.take(&head)
		if p == nil {
			return
		}
		var st Stats
		var built, drew time.Duration
		var err error
		start := time.Now()
		if of != p {
			// One Scoper at a time: a thread holds O(d_max), however many
			// parts it visits. The accountant restarts with it, so its peak
			// is over this part's scopes only.
			of = nil
			acct.Reset()
			if scope, err = p.NewScoper(&set, &acct); err == nil {
				of = p
			}
			built = time.Since(start)
		}
		var wrote time.Duration
		if p.tw != nil && !c.ahead {
			wrote = p.tw.elapsed
		}
		for v := c.lo; v < c.hi && err == nil; v++ {
			u := v - p.SrcOff
			src.Reseed(p.Seed, uint64(u))
			dsts, attempts := scope(u, &src, buf)
			buf = dsts
			if p.DstOff != 0 {
				for i := range dsts {
					dsts[i] += p.DstOff
				}
			}
			st.Attempts += attempts
			st.Edges += int64(len(dsts))
			st.MaxDegree = max(st.MaxDegree, int64(len(dsts)))
			if c.ahead {
				c.lens = append(c.lens, int32(len(dsts)))
				c.dsts = append(c.dsts, dsts...)
			} else {
				err = p.w.WriteScope(v, dsts)
			}
		}
		st.PeakWorkerBytes = acct.Peak()
		if p.tw != nil {
			drew = time.Since(start) - built
			if !c.ahead {
				drew -= p.tw.elapsed - wrote
			}
		}
		s.finish(p, c, st, built, drew, err)
	}
}

// take returns the calling thread's next chunk, waiting while every
// part that still has rows has a chunk in flight and no room in the
// window; it returns nil when no part has rows left.
func (s *chunkSched) take(mine *chunk) (*partRun, *chunk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		p, c, more := s.next(mine)
		if c != nil || !more {
			return p, c
		}
		s.room.Wait()
	}
}

// next is take without the wait, called with mu held: the next chunk of
// the first part that has rows left and either no chunk in flight or
// room in the window, or none — for now, if more. A head chunk needs no
// buffers and is written by the thread that draws it before that thread
// takes another, so it lives in the thread's own `mine`.
func (s *chunkSched) next(mine *chunk) (p *partRun, c *chunk, more bool) {
	for s.first < len(s.parts) && s.parts[s.first].next >= s.parts[s.first].Hi {
		s.first++
	}
	for _, p := range s.parts[s.first:] {
		if p.next >= p.Hi {
			continue
		}
		if p.cut <= p.next {
			lo := p.next - p.SrcOff
			p.cut = p.SrcOff + CutRows(p.ExpectedEdges, lo, min(p.Hi-p.SrcOff, lo+chunkEdges), chunkEdges)
			// Drawn ahead it holds a whole buffer, however few edges it
			// turns out to have; only a single row can be dearer.
			p.cost = max(int64(math.Ceil(p.ExpectedEdges(lo, p.cut-p.SrcOff))), chunkEdges)
		}
		head := len(p.queue) == 0
		if !head && s.ahead+p.cost > s.window {
			continue
		}
		c := mine
		if !head {
			c = aheadChunks.Get().(*chunk)
			s.ahead += p.cost
		}
		*c = chunk{lo: p.next, hi: p.cut, ahead: !head, lens: c.lens[:0], dsts: c.dsts[:0]}
		if c.ahead {
			c.cost = p.cost
		}
		p.queue = append(p.queue, c)
		if p.next = p.cut; p.next >= p.Hi {
			s.room.Broadcast() // the last chunk may be the one waiters wait to learn of
		}
		return p, c, true
	}
	return nil, nil, s.first < len(s.parts)
}

// finish records a drawn chunk. If it is at the head of its part, the
// calling thread is the part's writer until the queue runs out of drawn
// chunks: it writes the ones drawn ahead, returns their buffers, and
// settles the part after its last row. Otherwise the chunk waits, drawn,
// for the thread that gets to it.
func (s *chunkSched) finish(p *partRun, c *chunk, st Stats, built, drew time.Duration, err error) {
	s.mu.Lock()
	p.stats.merge(st)
	p.built += built
	p.drew += drew
	if err != nil {
		s.fail(p, err)
	}
	c.drawn = true
	if p.queue[0] != c {
		s.mu.Unlock()
		return
	}
	for len(p.queue) > 0 && p.queue[0].drawn {
		c := p.queue[0]
		if c.ahead && p.err == nil {
			// Only this thread can reach the writer: c stays at the head,
			// so chunks taken meanwhile queue behind it.
			s.mu.Unlock()
			err := c.write(p.w)
			s.mu.Lock()
			if err != nil {
				s.fail(p, err)
			}
		}
		p.queue = p.queue[:copy(p.queue, p.queue[1:])]
		if c.ahead {
			s.ahead -= c.cost
			aheadChunks.Put(c)
		}
	}
	settled := len(p.queue) == 0 && p.next >= p.Hi
	s.room.Broadcast()
	s.mu.Unlock()
	if settled {
		s.settle(p)
	}
}

// fail records a part's first error and stops cutting it; chunks of it
// already in flight drain through finish unwritten. Called with mu held.
func (s *chunkSched) fail(p *partRun, err error) {
	if p.err == nil {
		p.err = err
	}
	p.next = p.Hi
}

// settle ends a part no thread will touch again: its writer is closed
// unless the part failed, its books are closed either way.
func (s *chunkSched) settle(p *partRun) {
	if p.err == nil {
		p.err = p.w.Close()
	}
	p.stats.BytesWritten = p.w.BytesWritten()
	if tel := s.tel; tel != nil {
		tel.Stage(StageRecvecBuild).Observe(p.built, 1)
		tel.Stage(StageSinkWrite).Observe(p.tw.elapsed, p.stats.Edges)
		if p.drew > 0 {
			tel.Stage(StageScopeDraw).Observe(p.drew, p.tw.scopes)
		}
		tel.Counter(MetricScopes).Add(p.tw.scopes)
		tel.Counter(MetricEdges).Add(p.stats.Edges)
		tel.Counter(MetricAttempts).Add(p.stats.Attempts)
		tel.Counter(MetricBytes).Add(p.stats.BytesWritten)
	}
	if p.Settled != nil {
		p.err = p.Settled(p.stats, p.err, s.tel)
	}
}

// merge folds one part's counts into the run's.
func (s *Stats) merge(part Stats) {
	s.Edges += part.Edges
	s.Attempts += part.Attempts
	s.BytesWritten += part.BytesWritten
	s.MaxDegree = max(s.MaxDegree, part.MaxDegree)
	s.PeakWorkerBytes = max(s.PeakWorkerBytes, part.PeakWorkerBytes)
}

// slotCap is how many encoded bytes one part may run ahead of its turn:
// 1 MiB holds a whole part of a schedule cut for parallelism (see the
// server's chunkEdges), so run-ahead parts finish without stalling,
// while a part of any size — a Scale-34 hub row — stalls here.
const slotCap = 1 << 20

// StreamParts writes the parts next yields into w as one byte stream:
// each part's bytes in the given format, concatenated in the order next
// yielded them — which, TSV and ADJ6 encoding scope by scope with no
// global state, is exactly the part files GenerateParts would write,
// joined. next is the lazy part schedule: it is never called
// concurrently, and ok=false — which it must keep answering — ends the
// stream. wrap, if non-nil, decorates each part's sink (progress
// counters), as in RunParts.
//
// At most `workers` goroutines take parts in order and draw each, on
// their own, into the format's ordinary encoder. The part at the
// head of the line writes straight through to w; a part running ahead
// appends to its worker's buffer and blocks at slotCap until it is head,
// so stream memory is O(workers · (d_max + slotCap)) whatever a part's
// size, and a slow w throttles generation. With workers ≤ 1 every part
// is head when it starts: nothing is buffered, no goroutine starts, and
// the call is GenerateParts of one part into the encoder over w — batch.
//
// Cancelling ctx, a write error on w or a part's own failure ends the
// stream: parts blocked on their turn wake, running parts stop at their
// next scope, and that first cause is returned as is. Stats sums the
// parts taken (Ranges is left empty: a schedule can hold millions).
func StreamParts(ctx context.Context, src PartSource, format gformat.Format, next func() (id int, r partition.Range, ok bool), workers int, w io.Writer, wrap func(SinkFactory) SinkFactory) (Stats, error) {
	if !streamable(format) {
		return Stats{}, fmt.Errorf("core: format %v is not streamable (use tsv or adj6)", format)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	o := &orderedStream{w: w, ctx: ctx, cancel: cancel}
	o.turn.L = &o.mu
	// Parts parked on their turn cannot see ctx; fail wakes them.
	stop := context.AfterFunc(ctx, func() { o.fail(ctx.Err()) })
	defer stop()

	var out Stats
	var take sync.Mutex // serialises next, the sequence numbers and out
	var taken int64
	work := func() {
		slot := &streamSlot{o: o}
		for {
			take.Lock()
			id, r, ok := next()
			slot.seq = taken
			taken++
			take.Unlock()
			if !ok {
				return
			}
			if err := ctx.Err(); err != nil {
				o.fail(err)
				return
			}
			sinks := SinkFactory(func(int, partition.Range) (gformat.Writer, error) {
				if format == gformat.TSV {
					return &streamWriter{Writer: gformat.NewTSVWriter(slot), o: o}, nil
				}
				return &streamWriter{Writer: gformat.NewADJ6Writer(slot), o: o}, nil
			})
			if wrap != nil {
				sinks = wrap(sinks)
			}
			sink, err := sinks(0, r)
			if err == nil {
				// One part, one thread: every chunk is a head chunk, drawn in
				// this goroutine straight into the encoder.
				p := drawParts(src, []partition.Range{r}, []int{id}, []gformat.Writer{sink}, nil)[0]
				take.Lock()
				out.merge(p.stats)
				take.Unlock()
				err = p.err
			}
			if err == nil {
				err = slot.finish()
			}
			if err != nil {
				o.fail(err)
				return
			}
		}
	}
	start := time.Now()
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	out.GenDuration = time.Since(start)
	out.Elapsed = out.GenDuration
	return out, o.fail(nil) // nil records nothing: the first failure, if any
}

// orderedStream is the one writer StreamParts' parts share, and whose
// turn it is to write to it.
type orderedStream struct {
	w      io.Writer
	ctx    context.Context
	cancel context.CancelFunc
	// head is the sequence number of the part whose bytes go straight to
	// w. It is written under mu; the head part reads it lock-free.
	head atomic.Int64

	mu   sync.Mutex
	turn sync.Cond // head advanced, or err set
	err  error     // the stream's first failure
}

// fail records err as the stream's failure unless one is recorded
// already, stops every part (running parts see ctx at their next scope,
// parked ones wake), and returns the recorded failure.
func (o *orderedStream) fail(err error) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err == nil && err != nil {
		o.err = err
		o.cancel()
		o.turn.Broadcast()
	}
	return o.err
}

// write sends the head part's bytes to w.
func (o *orderedStream) write(p []byte) (int, error) {
	n, err := o.w.Write(p)
	if err != nil {
		err = o.fail(err)
	}
	return n, err
}

// streamSlot is one worker's place in the stream: the io.Writer under
// the encoder of the part it is generating, and the buffer (reused from
// part to part) that part fills while it runs ahead of its turn.
type streamSlot struct {
	o      *orderedStream
	seq    int64
	atHead bool // this part's turn has come: buf is flushed, writes go through
	buf    []byte
}

func (s *streamSlot) Write(p []byte) (int, error) {
	n := 0
	for !s.atHead {
		if s.o.head.Load() != s.seq {
			room := slotCap - len(s.buf)
			if len(p)-n <= room {
				s.buf = append(s.buf, p[n:]...)
				return len(p), nil
			}
			s.buf = append(s.buf, p[n:n+room]...)
			n += room
		}
		if err := s.await(); err != nil {
			return n, err
		}
	}
	m, err := s.o.write(p[n:])
	return n + m, err
}

// await blocks until it is this part's turn (or the stream failed) and
// flushes what the part buffered while it ran ahead.
func (s *streamSlot) await() error {
	o := s.o
	o.mu.Lock()
	for o.err == nil && o.head.Load() != s.seq {
		o.turn.Wait()
	}
	err := o.err
	o.mu.Unlock()
	if err != nil {
		return err
	}
	s.atHead = true
	if len(s.buf) > 0 {
		_, err = o.write(s.buf)
		s.buf = s.buf[:0]
	}
	return err
}

// finish ends a generated part: its remaining bytes reach w, in turn,
// and the turn passes to the next part.
func (s *streamSlot) finish() error {
	if !s.atHead {
		if err := s.await(); err != nil {
			return err
		}
	}
	s.atHead = false
	s.o.mu.Lock()
	s.o.head.Add(1)
	s.o.turn.Broadcast()
	s.o.mu.Unlock()
	return nil
}

// streamWriter is a part's encoder inside a stream: it checks for the
// stream's end before every scope, so a cancelled or failed stream stops
// generating within one scope per running part.
type streamWriter struct {
	gformat.Writer
	o *orderedStream
}

func (w *streamWriter) WriteScope(src int64, dsts []int64) error {
	select {
	case <-w.o.ctx.Done():
		return w.o.fail(w.o.ctx.Err())
	default:
	}
	return w.Writer.WriteScope(src, dsts)
}

// RunParts makes the given parts of src — which the caller found
// missing from dir — exist there: each is materialized from the store
// on a checksum-verified hit (Stats.PartsFromCache counts them) and
// otherwise generated through the one sink stack every runtime shares:
// atomic part files (a crash leaves only .tmp litter, never a truncated
// part), ingested into the store after the rename (storedPartSinks),
// feeding tel's per-format sink counters. A nil store and a nil
// registry drop their layers. opt is the swarm's shared-directory publish behaviour (zero
// for everyone else); wrap, if non-nil, decorates the finished stack
// (the dist worker's heartbeat progress counter).
func RunParts(src PartSource, dir string, format gformat.Format, ranges []partition.Range, ids []int, st *store.Store, tel *telemetry.Registry, opt PartSinkOptions, wrap func(SinkFactory) SinkFactory) (Stats, error) {
	missing, missingIDs, hits, err := FetchFromStore(st, src, dir, format, ranges, ids)
	if err != nil || len(missing) == 0 {
		return Stats{PartsFromCache: hits}, err
	}
	sinks := storedPartSinks(dir, format, src, missingIDs, st, opt)
	sinks = ObservedSinks(sinks, format, tel)
	if wrap != nil {
		sinks = wrap(sinks)
	}
	gst, err := GenerateParts(src, missing, missingIDs, sinks, tel)
	gst.PartsFromCache = hits
	return gst, err
}

// ResumeParts generates src into dir as `parts` part files (a hint the
// source's Plan may fix itself) with the full resume treatment: a
// manifest handshake that fails a mismatched resume instead of mixing
// two partitions in one directory, crashed-run temp files swept, every
// part that already exists complete skipped (each present part is
// structurally verified, not just stat'ed), and the rest handed to
// RunParts. An interrupted run therefore continues where it stopped, a
// finished run is a no-op, and the resulting file set is bit-identical
// to an uninterrupted one.
func ResumeParts(src PartSource, parts int, dir string, format gformat.Format, st *store.Store, tel *telemetry.Registry) (Stats, error) {
	planStart := time.Now()
	ranges, ids, err := src.Plan(parts)
	if err != nil {
		return Stats{}, err
	}
	planDur := time.Since(planStart)
	if err := src.EnsureManifest(dir, format, len(ranges)); err != nil {
		return Stats{}, err
	}
	if err := SweepTemps(dir); err != nil {
		return Stats{}, err
	}
	missing, missingIDs := MissingParts(dir, format, ranges, ids)
	gst, err := RunParts(src, dir, format, missing, missingIDs, st, tel, PartSinkOptions{}, nil)
	gst.PlanDuration = planDur
	gst.Elapsed = planDur + gst.GenDuration
	gst.Ranges = ranges
	return gst, err
}

// ResumeToDir generates the graph into dir with atomic part files,
// skipping every part that already exists complete. The configuration
// (including Workers, which fixes the partition) must match the
// original run. It is ResumeToDirStore without an artifact store.
func ResumeToDir(cfg Config, dir string, format gformat.Format) (Stats, error) {
	return ResumeToDirStore(cfg, dir, format, nil)
}

// ResumeToDirStore is ResumeParts for a classic Config, one part per
// worker, backed by an artifact store: each missing part is looked up
// by its range key and materialized from the store on a hit; each
// generated part is ingested so the next run — here or on any machine
// sharing the store — skips it. Stats.PartsFromCache reports the hits.
// A nil store degrades to plain ResumeToDir.
func ResumeToDirStore(cfg Config, dir string, format gformat.Format, st *store.Store) (Stats, error) {
	return ResumeParts(cfg, cfg.workers(), dir, format, st, nil)
}
