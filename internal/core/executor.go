package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
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
//	RunParts:    store fetch → (atomic+digest → ingest) sinks → GenerateParts
//
// and every runtime that turns one into a single ordered byte stream —
// the server's jobs, the facade's StreamRange — runs
//
//	StreamParts: an encoder over w per part → drawParts, ordered
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
	return generateParts(src, ranges, ids, sinks, tel, nil)
}

// ChunkFunc is told of each chunk a part's writer has taken: the part's
// id and the chunk's counted work — its scopes, edges and attempts, the
// bytes the writer grew by, its largest degree and the drawing thread's
// working-set peak. It is called by the thread that wrote the chunk,
// right after the write, and for one part never twice at once. A non-nil
// error fails the part, which is left unclosed (under atomic sinks, never
// renamed into place). Merged, a run's deltas are its Stats, but for
// bytes a writer adds at Close (none of gformat's does), which reach
// Stats and the registry alone.
type ChunkFunc func(id int, done Stats) error

// generateParts is GenerateParts telling onChunk, if non-nil, of every
// chunk written.
func generateParts(src PartSource, ranges []partition.Range, ids []int, sinks SinkFactory, tel *telemetry.Registry, onChunk ChunkFunc) (Stats, error) {
	if len(ranges) == 0 {
		return Stats{}, fmt.Errorf("core: no ranges to generate")
	}
	if len(ranges) != len(ids) {
		return Stats{}, fmt.Errorf("core: %d ranges but %d part ids", len(ranges), len(ids))
	}
	writers := make([]gformat.Writer, len(ranges))
	for i, r := range ranges {
		w, err := sinks(i, r)
		if err != nil {
			return Stats{Ranges: ranges}, err
		}
		writers[i] = w
	}

	start := time.Now()
	s := drawParts(src, ranges, ids, writers, min(len(ranges), runtime.GOMAXPROCS(0)), false, tel, onChunk)
	out := s.total(ranges, time.Since(start))
	for i, p := range s.parts {
		if p.err != nil {
			return out, fmt.Errorf("core: worker %d: %w", i, p.err)
		}
	}
	return out, nil
}

// A chunk is the scheduling unit: a run of consecutive rows of one part
// holding about chunkEdges expected edges — at least one row, at most
// chunkEdges rows — cut on demand by cutRows from the part's closed
// form. aheadEdges is how far, in expected edges per thread, chunks may
// be drawn ahead of their part's writer: four chunks,
// so that behind a head stalled on a near-full hub row a thread can draw
// the next hub row (itself over a chunk's worth) and the light rows on
// either side of it before it has to look to another part.
const (
	chunkEdges = 8 << 10
	aheadEdges = 4 * chunkEdges
)

// chunk is a run of rows [lo, hi) of one part, taken by one thread and
// drawn into lens and dsts (row lo+i has lens[i] destinations, flat in
// dsts), then written when every chunk before it has been. The chunk at
// the head of its part's queue when it was taken is the thread's own: the
// thread writes it before it takes another. One taken behind another is
// drawn ahead and charged against the window until it is written. Both
// reuse their buffers from run to run, through headChunks and
// aheadChunks.
type chunk struct {
	lo, hi int64
	ahead  bool
	cost   int64 // charged against the window while an ahead chunk is unwritten
	drawn  bool
	st     Stats // the rows' counted work, once drawn
	lens   []int32
	dsts   []int64
}

// aheadChunks and headChunks recycle chunk buffers: a run needs one per
// thread and a window's worth at once, and a process that generates
// again and again (a server, a swarm worker, a stream's every part) would
// otherwise allocate them anew each time. A chunk's edges scatter around
// its expectation; an eighth over is a dozen standard deviations at this
// size. Heads are pooled apart because only a head holds a row larger
// than the window: its grown buffer serves the next thread's head, and
// does not pass into every chunk the window hands out.
var (
	aheadChunks = sync.Pool{New: newChunk}
	headChunks  = sync.Pool{New: newChunk}
)

func newChunk() any { return &chunk{dsts: make([]int64, 0, chunkEdges+chunkEdges/8)} }

// write replays a drawn chunk into its part's writer.
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
	id      int
	w       gformat.Writer
	bytes   int64    // w's byte count after the last chunk; the writer's, like w
	next    int64    // first row not yet cut into a chunk; Hi when none is left or the part failed
	cut     int64    // end of the next chunk, 0 until computed
	cost    int64    // and its cost
	queue   []*chunk // taken and not yet written, in row order
	stats   Stats    // the counted work of the chunks written
	err     error
	settled bool // closed, unless it failed, and its books closed
	// built, drew and wrote sum, over threads, the time spent building
	// this part's Scopers, drawing its chunks and writing them.
	built, drew, wrote time.Duration
}

// chunkSched hands the rows of a set of parts to threads. A thread asks
// for work with take and reports it with finish; nothing else is shared.
type chunkSched struct {
	tel     *telemetry.Registry
	meters  *coreMeters // tel's run totals, nil without one
	onChunk ChunkFunc

	mu     sync.Mutex
	room   sync.Cond // a chunk was written, a queue emptied, a part ran out of rows or the turn passed
	parts  []*partRun
	first  int   // parts before this one have no rows left to cut
	ahead  int64 // summed cost of the unwritten ahead chunks
	window int64 // its bound

	// An ordered run (a stream) writes only the turn part, the first not
	// settled; err is its first failure, after which nothing is taken,
	// written or settled.
	ordered bool
	turn    int
	err     error
}

// drawParts is Algorithm 4's outer loop, written once for every
// PartSource and every runtime: it draws the rows of the opened parts
// on `threads` threads and writes part i's scopes into writers[i], in
// row order, closing the writer after the last; a part that fails — to
// open, to build a Scoper, to write, in onChunk — is abandoned unclosed,
// so under atomic sinks it is never renamed into place, and its error is
// kept in part order.
//
// Drawing is CPU-bound and a thread keeps O(d_max) of warm storage, so
// callers give no more threads than GOMAXPROCS. They take chunks
// cooperatively: each takes the next chunk of the first part that still
// has rows and either has no chunk in flight — the thread then holds the
// part's head — or fits the run-ahead window. Every chunk is drawn into
// a buffer and handed to the writer when its turn comes, by the thread
// that finishes the chunk before it or by its own, whichever is later; a
// head chunk's turn has come when it is drawn. Scope (seed, row) is a
// pure function, so which thread draws a row changes nothing the writer
// sees. Taking chunks in part order, not own part first, is what keeps
// threads busy: a thread whose part is exhausted, or whose way is barred
// by a full window behind a hub row, always has the next part's head to
// fall back on. The window holds aheadEdges expected edges per thread; a
// chunk that alone exceeds it (one huge row) is only ever drawn at the
// head. So extra memory is O(threads · (d_max + chunk)), and with one
// thread every chunk is a head chunk: one chunk or one row, whichever is
// larger, is in hand, and no goroutine starts.
//
// An ordered run adds one rule: a part's chunks are written only once
// the part before it has settled. Until then they are all drawn ahead,
// in the same window, and the thread that settles the turn part passes
// the turn on and writes what the next part has drawn.
//
// The written chunk is the one point where a run is observed: the thread
// that wrote it settles its counted work — onChunk, then, with a
// registry, the scope, edge, attempt and byte counters and the edge rate
// — a few clock reads and atomic adds per chunk. A part records its
// recvec-build, scope-draw and sink-write stages (thread-time sums) once,
// as it settles.
func drawParts(src PartSource, ranges []partition.Range, ids []int, writers []gformat.Writer, threads int, ordered bool, tel *telemetry.Registry, onChunk ChunkFunc) *chunkSched {
	s := openParts(src, ranges, ids, writers, threads, ordered, tel, onChunk)
	if threads == 1 {
		s.work()
		return s
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
	return s
}

// openParts opens every part for a scheduler that `threads` threads will
// work; a part with no rows settles here.
func openParts(src PartSource, ranges []partition.Range, ids []int, writers []gformat.Writer, threads int, ordered bool, tel *telemetry.Registry, onChunk ChunkFunc) *chunkSched {
	s := &chunkSched{tel: tel, meters: newCoreMeters(tel), onChunk: onChunk, parts: make([]*partRun, len(ranges)), ordered: ordered}
	s.room.L = &s.mu
	s.window = aheadEdges * int64(threads)
	for i, r := range ranges {
		p := &partRun{id: ids[i], w: writers[i]}
		s.parts[i] = p
		part, err := src.OpenPart(ids[i], r)
		if err != nil {
			s.fail(p, err) // no rows: nothing of it is ever taken
			continue
		}
		p.Part, p.next = part, part.Lo
		if p.Lo >= p.Hi {
			s.settle(p)
			p.settled = true
		}
	}
	s.pass()
	return s
}

// total is the Stats of a run over ranges that took `took`: the parts'
// counts merged.
func (s *chunkSched) total(ranges []partition.Range, took time.Duration) Stats {
	out := Stats{Ranges: ranges, GenDuration: took, Elapsed: took}
	for _, p := range s.parts {
		out.merge(p.stats)
	}
	return out
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
		head  = headChunks.Get().(*chunk)
	)
	defer headChunks.Put(head)
	for {
		p, c := s.take(head)
		if p == nil {
			return
		}
		var built time.Duration
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
		st := &c.st
		if err == nil {
			for v := c.lo; v < c.hi; v++ {
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
				c.lens = append(c.lens, int32(len(dsts)))
				c.dsts = append(c.dsts, dsts...)
			}
			st.Scopes = c.hi - c.lo
		}
		st.PeakWorkerBytes = acct.Peak()
		s.finish(p, c, built, time.Since(start)-built, err)
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
// the first part that has rows left and either no chunk in flight, with
// its turn to write, or room in the window, or none — for now, if more.
// A head chunk is written by the thread that draws it before that thread
// takes another, so it lives in the thread's own `mine`.
func (s *chunkSched) next(mine *chunk) (p *partRun, c *chunk, more bool) {
	if s.err != nil {
		return nil, nil, false
	}
	for s.first < len(s.parts) && s.parts[s.first].next >= s.parts[s.first].Hi {
		s.first++
	}
	for _, p := range s.parts[s.first:] {
		if p.next >= p.Hi {
			continue
		}
		if p.cut <= p.next {
			lo := p.next - p.SrcOff
			p.cut = p.SrcOff + cutRows(p.ExpectedEdges, lo, min(p.Hi-p.SrcOff, lo+chunkEdges), chunkEdges)
			// Drawn ahead it holds a whole buffer, however few edges it
			// turns out to have; only a single row can be dearer.
			p.cost = max(int64(math.Ceil(p.ExpectedEdges(lo, p.cut-p.SrcOff))), chunkEdges)
		}
		head := len(p.queue) == 0 && s.onTurn(p)
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

// finish records a drawn chunk. If it is at the head of its part, and
// the part's turn to write has come, the calling thread is the part's
// writer until the queue runs out of drawn chunks (writeDrawn), and
// settles the part after its last row — then, in an ordered run, passes
// the turn on and writes what the next part has drawn. Otherwise the
// chunk waits, drawn, for the thread that gets to it.
func (s *chunkSched) finish(p *partRun, c *chunk, built, drew time.Duration, err error) {
	s.mu.Lock()
	p.built += built
	p.drew += drew
	if err != nil {
		s.fail(p, err)
	}
	c.drawn = true
	if p.queue[0] != c || !s.onTurn(p) {
		s.mu.Unlock()
		return
	}
	for p != nil {
		s.writeDrawn(p)
		if len(p.queue) > 0 || p.next < p.Hi || s.err != nil {
			break
		}
		s.room.Broadcast()
		s.mu.Unlock()
		s.settle(p)
		s.mu.Lock()
		p.settled = true
		p = s.pass()
	}
	s.room.Broadcast()
	s.mu.Unlock()
}

// writeDrawn writes p's drawn chunks, from the head of its queue on, as
// p's writer: it settles each one's counted work and returns the buffers
// of those drawn ahead; after a failure, the part's or an ordered run's,
// it drops them unwritten. Called with mu held, which it lets go around
// each write — the chunk stays at the head, so chunks taken meanwhile
// queue behind it and only this thread can reach the writer.
func (s *chunkSched) writeDrawn(p *partRun) {
	for len(p.queue) > 0 && p.queue[0].drawn {
		c := p.queue[0]
		if p.err == nil && s.err == nil {
			s.mu.Unlock()
			start := time.Now()
			err := c.write(p.w)
			wrote := time.Since(start)
			if err == nil {
				err = s.written(p, c)
			}
			s.mu.Lock()
			p.wrote += wrote
			if err != nil {
				s.fail(p, err)
			} else {
				p.stats.merge(c.st)
			}
		}
		p.queue = p.queue[:copy(p.queue, p.queue[1:])]
		if c.ahead {
			s.ahead -= c.cost
			aheadChunks.Put(c)
		}
	}
}

// onTurn reports whether p's chunks may be written: any part's, but in
// an ordered run only the turn part's. Called with mu held.
func (s *chunkSched) onTurn(p *partRun) bool {
	return !s.ordered || s.turn < len(s.parts) && s.parts[s.turn] == p
}

// pass moves the turn past the parts that have settled — in an ordered
// run, one that failed in settling (its writer's last flush, its
// Settled) ends the run there — and, in an ordered run that has not
// failed, returns the turn part if the chunk at the head of its queue is
// drawn: the calling thread is then its writer. Called with mu held.
func (s *chunkSched) pass() *partRun {
	for ; s.turn < len(s.parts) && s.parts[s.turn].settled; s.turn++ {
		if s.ordered && s.err == nil {
			s.err = s.parts[s.turn].err
		}
	}
	if !s.ordered || s.err != nil || s.turn == len(s.parts) {
		return nil
	}
	if p := s.parts[s.turn]; len(p.queue) > 0 && p.queue[0].drawn {
		return p
	}
	return nil
}

// written settles a chunk its part's writer has taken, on the writer's
// thread, without the lock: the chunk's byte count is the writer's
// growth, and onChunk, then the registry, are told of its work.
func (s *chunkSched) written(p *partRun, c *chunk) error {
	b := p.w.BytesWritten()
	c.st.BytesWritten, p.bytes = b-p.bytes, b
	if s.onChunk != nil {
		if err := s.onChunk(p.id, c.st); err != nil {
			return err
		}
	}
	s.meters.add(c.st)
	return nil
}

// fail records a part's first error and stops cutting it; chunks of it
// already in flight drain through finish unwritten. In an ordered run
// the first error is the run's and ends it. Called with mu held.
func (s *chunkSched) fail(p *partRun, err error) {
	if p.err == nil {
		p.err = err
	}
	p.next = p.Hi
	if s.ordered && s.err == nil {
		s.err = err
	}
}

// settle ends a part no thread will touch again: its writer is closed
// unless the part failed, its books are closed either way.
func (s *chunkSched) settle(p *partRun) {
	if p.err == nil {
		start := time.Now()
		p.err = p.w.Close()
		p.wrote += time.Since(start)
	}
	// Bytes no chunk was told of — Close's, a failed chunk's — are the
	// part's all the same.
	b := p.w.BytesWritten()
	s.meters.add(Stats{BytesWritten: b - p.stats.BytesWritten})
	p.stats.BytesWritten = b
	if tel := s.tel; tel != nil {
		tel.Stage(StageRecvecBuild).Observe(p.built, 1)
		tel.Stage(StageSinkWrite).Observe(p.wrote, p.stats.Edges)
		if p.drew > 0 {
			tel.Stage(StageScopeDraw).Observe(p.drew, p.stats.Scopes)
		}
	}
	if p.Settled != nil {
		p.err = p.Settled(p.stats, p.err, s.tel)
	}
}

// merge folds one part's counts into the run's.
func (s *Stats) merge(part Stats) {
	s.Scopes += part.Scopes
	s.Edges += part.Edges
	s.Attempts += part.Attempts
	s.BytesWritten += part.BytesWritten
	s.MaxDegree = max(s.MaxDegree, part.MaxDegree)
	s.PeakWorkerBytes = max(s.PeakWorkerBytes, part.PeakWorkerBytes)
}

// StreamParts writes the planned parts of src (ranges and ids as in
// GenerateParts) into w as one byte stream, each part's bytes in the
// given format, in part order — which, TSV and ADJ6 encoding scope by
// scope with no global state, is the part files GenerateParts would
// write, joined. tel and onChunk, if non-nil, observe the run as in
// RunParts.
//
// It is drawParts as an ordered run on min(max(workers, 1), GOMAXPROCS)
// threads, each part through an ordinary encoder over w, so stream
// memory is the batch bound, O(threads · (d_max + chunk)) and the
// window, whatever the parts' sizes, a slow w throttles generation, and
// workers ≤ 1 is one thread and no goroutine: batch. The first failure —
// a part's, a write error on w, ctx cancelled (seen after the next chunk
// written) — ends the stream: no later part writes a byte, and that
// failure is returned as is.
func StreamParts(ctx context.Context, src PartSource, format gformat.Format, ranges []partition.Range, ids []int, workers int, w io.Writer, tel *telemetry.Registry, onChunk ChunkFunc) (Stats, error) {
	if !format.Streams() {
		return Stats{}, fmt.Errorf("core: format %v is not streamable (use tsv or adj6)", format)
	}
	if len(ranges) != len(ids) {
		return Stats{}, fmt.Errorf("core: %d ranges but %d part ids", len(ranges), len(ids))
	}
	writers := make([]gformat.Writer, len(ranges))
	for i := range writers {
		writers[i] = &turnEncoder{Writer: gformat.NewDiscardWriter(format), format: format, w: w}
	}
	written := func(id int, done Stats) error {
		if err := ctx.Err(); err != nil || onChunk == nil {
			return err
		}
		return onChunk(id, done)
	}
	start := time.Now()
	s := drawParts(src, ranges, ids, writers, min(max(workers, 1), runtime.GOMAXPROCS(0)), true, tel, written)
	return s.total(ranges, time.Since(start)), s.err
}

// turnEncoder is a streamed part's encoder over the stream's writer,
// made at the part's first scope — parts write one at a time, in turn,
// so however many parts a plan holds, one encoder buffer is in use at a
// time — and an empty discard writer until then.
type turnEncoder struct {
	gformat.Writer
	format gformat.Format
	w      io.Writer
	opened bool
}

func (e *turnEncoder) WriteScope(src int64, dsts []int64) error {
	if !e.opened {
		e.opened = true
		w, err := gformat.NewWriter(e.w, e.format, 0)
		if err != nil {
			return err
		}
		e.Writer = w
	}
	return e.Writer.WriteScope(src, dsts)
}

// RunParts makes the given parts of src — which the caller found
// missing from dir — exist there: each is materialized from the store
// on a checksum-verified hit (Stats.PartsFromCache counts them) and
// otherwise generated through the one sink stack every runtime shares:
// atomic part files (a crash leaves only .tmp litter, never a truncated
// part), ingested into the store after the rename (storedPartSinks).
// A nil store drops its layer. opt is the swarm's shared-directory
// publish behaviour (zero for everyone else); onChunk, if non-nil, is
// told of every chunk written (the dist worker's heartbeat progress).
func RunParts(src PartSource, dir string, format gformat.Format, ranges []partition.Range, ids []int, st *store.Store, tel *telemetry.Registry, opt PartSinkOptions, onChunk ChunkFunc) (Stats, error) {
	missing, missingIDs, hits, err := FetchFromStore(st, src, dir, format, ranges, ids)
	if err != nil || len(missing) == 0 {
		return Stats{PartsFromCache: hits}, err
	}
	sinks := storedPartSinks(dir, format, src, missingIDs, st, opt)
	gst, err := generateParts(src, missing, missingIDs, sinks, tel, onChunk)
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
