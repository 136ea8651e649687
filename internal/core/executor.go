package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The part executor. Every runtime that turns a PartSource into part
// files in a directory — batch resume, the community layout, a dist
// worker's lease, a swarm worker's claim — runs the same sequence:
//
//	ResumeParts: Plan → EnsureManifest → SweepTemps → MissingParts → RunParts
//	RunParts:    store fetch → (atomic → ingest → observed) sinks → GenerateParts
//
// and every runtime that turns one into a single ordered byte stream —
// the server's jobs, the facade's StreamRange — runs
//
//	StreamParts: take parts in order → GeneratePart → encoder → the part's turn on w
//
// It is written once here because the determinism contract makes the
// outputs identical by construction; the callers differ only in which
// parts they ask for and when.

// GenerateParts executes the named parts of src concurrently — one
// goroutine per part, the only fan-out in this package — and merges
// their stats. sinks is keyed by position: part ids[i] writes through
// sinks(i, ranges[i]). The SinkFactory contract holds for every source:
// writers are opened serially, in part order, before any part draws,
// and a factory error aborts before the first draw. Per-part errors do
// not cancel sibling parts (each part is independently useful and
// independently resumable); the first error in part order is returned,
// attributed to its position, after all parts settle.
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
	stats := make([]Stats, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opened := func(int, partition.Range) (gformat.Writer, error) { return writers[i], nil }
			stats[i], errs[i] = src.GeneratePart(ids[i], ranges[i], opened, tel)
		}(i)
	}
	wg.Wait()
	out.GenDuration = time.Since(start)
	out.Elapsed = out.GenDuration

	for _, st := range stats {
		out.merge(st)
	}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("core: worker %d: %w", i, err)
		}
	}
	return out, nil
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
// At most `workers` goroutines take parts in order and run
// src.GeneratePart into the format's ordinary encoder. The part at the
// head of the line writes straight through to w; a part running ahead
// appends to its worker's buffer and blocks at slotCap until it is head,
// so stream memory is O(workers · (d_max + slotCap)) whatever a part's
// size, and a slow w throttles generation. With workers ≤ 1 every part
// is head when it starts: nothing is buffered, no goroutine starts, and
// the call is GeneratePart into the encoder over w — batch.
//
// Cancelling ctx, a write error on w or a part's own failure ends the
// stream: parts blocked on their turn wake, running parts stop at their
// next scope, and that first cause is returned as is. Stats sums the
// parts taken (Ranges is left empty: a schedule can hold millions).
func StreamParts(ctx context.Context, src PartSource, format gformat.Format, next func() (id int, r partition.Range, ok bool), workers int, w io.Writer, wrap func(SinkFactory) SinkFactory) (Stats, error) {
	if format != gformat.TSV && format != gformat.ADJ6 {
		// CSR6 backfills an offset table through a seekable sink.
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
			st, err := src.GeneratePart(id, r, sinks, nil)
			if err == nil {
				err = slot.finish()
			}
			take.Lock()
			out.merge(st)
			take.Unlock()
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
// part), ingested into the store after the rename, feeding tel's
// per-format sink counters. A nil store and a nil registry drop their
// layers. opt is the swarm's shared-directory publish behaviour (zero
// for everyone else); wrap, if non-nil, decorates the finished stack
// (the dist worker's heartbeat progress counter).
func RunParts(src PartSource, dir string, format gformat.Format, ranges []partition.Range, ids []int, st *store.Store, tel *telemetry.Registry, opt PartSinkOptions, wrap func(SinkFactory) SinkFactory) (Stats, error) {
	missing, missingIDs, hits, err := FetchFromStore(st, src, dir, format, ranges, ids)
	if err != nil || len(missing) == 0 {
		return Stats{PartsFromCache: hits}, err
	}
	sinks := atomicPartSinks(dir, format, src.NumVertices(), missingIDs, opt)
	sinks = IngestingSinks(sinks, st, src, dir, format, missingIDs)
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
