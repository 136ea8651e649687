package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
)

// storeCycle is one cold core.ResumeToDirStore into an empty directory
// and an empty store, then warm calls, each into a fresh directory
// against the now-populated store. The cold call is the write side of
// store/gformat/file sinks (and what edges_per_sec reports); the warm
// calls are the read side with zero generation. job_p50_ms is the cold
// call's latency too: a warm call is a copy, a hash and a few fsyncs in
// 40 ms, and on a shared disk its latency spread wider than its bound,
// so it is the per-layer store.warm_call_p50_ms instead.
type storeCycle struct {
	cfg    core.Config
	format gformat.Format
	warm   int
	ref    reference
	base   string
	n      int
	verify bool // the warm-up: compare digests, not just sizes

	// Accumulated over every repetition, traced or not.
	warmWall     time.Duration
	warmCallMS   []float64
	warmEdges    int64
	warmHits     int
	warmParts    int
	ingest       time.Duration // traced repetitions only
	ingestDenom  time.Duration // workers × cold wall of those repetitions
	coldWallSecs []float64
}

func setupStoreCycle(e env) (instance, error) {
	cfg := core.DefaultConfig(pick(e, 17, 11))
	cfg.MasterSeed = e.master(3)
	cfg.Workers = e.W
	s := &storeCycle{cfg: cfg, format: gformat.TSV, warm: pick(e, 4, 2)}
	var err error
	if s.base, err = e.mkdir("store-cycle"); err != nil {
		return nil, err
	}
	if s.ref, err = referenceFor(cfg, s.format, nil); err != nil {
		return nil, err
	}
	s.verify = true
	r, err := s.rep(nil)
	s.verify = false
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("store-cycle: %d of %d warm-up checks failed: output differs from the in-process reference", r.failed, r.ops)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.warmWall, s.warmCallMS, s.warmEdges, s.warmHits, s.warmParts, s.coldWallSecs = 0, nil, 0, 0, 0, nil
	return s, nil
}

func (s *storeCycle) size() string {
	return fmt.Sprintf("scale %d, edge factor %d, %d workers, %v: 1 cold + %d warm calls, %d edges, %d bytes",
		s.cfg.Scale, s.cfg.EdgeFactor, s.cfg.Workers, s.format, s.warm, s.ref.edges, s.ref.bytes)
}

func (s *storeCycle) close() { os.RemoveAll(s.base) }

func (s *storeCycle) rep(tr *tracer) (res repResult, err error) {
	s.n++
	dir := filepath.Join(s.base, fmt.Sprintf("rep%d", s.n))
	defer os.RemoveAll(dir)
	dirs := make([]string, 1+s.warm) // cold, then the warm ones
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("out%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return res, err
		}
	}
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return res, err
	}

	root := tr.begin(0, "store-cycle")
	for i, out := range dirs {
		start := time.Now()
		var cs core.Stats
		if tr == nil {
			cs, err = core.ResumeToDirStore(s.cfg, out, s.format, st)
		} else {
			cs, err = s.tracedResume(tr, tr.begin(root, spanName("core.resume", i)), out, st)
		}
		wall := time.Since(start)
		if err != nil {
			return res, err
		}
		res.ops++
		res.busy += wall
		if i == 0 {
			res.wall, res.edges, res.bytes = wall, cs.Edges, cs.BytesWritten
			res.jobs = []time.Duration{wall}
			res.failed += sameCounts("store-cycle cold", cs.Edges, cs.BytesWritten, s.ref.edges, s.ref.bytes)
			s.coldWallSecs = append(s.coldWallSecs, wall.Seconds())
			if tr != nil {
				s.ingestDenom += time.Duration(s.cfg.Workers) * wall
			}
			continue
		}
		s.warmWall += wall
		s.warmCallMS = append(s.warmCallMS, float64(wall.Nanoseconds())/1e6)
		s.warmEdges += s.ref.edges
		s.warmHits += cs.PartsFromCache
		s.warmParts += len(cs.Ranges)
		if cs.PartsFromCache != len(cs.Ranges) || cs.Edges != 0 {
			fmt.Fprintf(os.Stderr, "bench: store-cycle warm call %d generated %d edges, %d of %d parts from the store\n",
				i, cs.Edges, cs.PartsFromCache, len(cs.Ranges))
			res.failed++
		}
	}
	tr.finish(root, s.ref.edges*int64(len(dirs)))
	res.delivered = s.ref.edges * int64(len(dirs))

	// Outside every timed region: on the warm-up, digests of the cold
	// directory and of one warm one; sizes everywhere else.
	for i, out := range dirs {
		res.ops += len(s.ref.parts)
		res.failed += checkParts(out, s.format, s.ref, s.verify && (i == 0 || i == len(dirs)-1))
	}
	return res, nil
}

// tracedResume is core.ResumeToDirStore put together from the same
// public pieces, so that spans can sit between them under the call's
// own span (resume): the plan, the
// per-part store look-ups, the generation with its workers and writers,
// and each part's ingest (the time between the atomic part writer's
// Close and the ingesting writer's).
func (s *storeCycle) tracedResume(tr *tracer, resume int, dir string, st *store.Store) (gst core.Stats, err error) {
	defer func() { tr.finish(resume, gst.Edges) }()
	start := time.Now()
	ranges, err := core.Plan(s.cfg, s.cfg.Workers)
	if err != nil {
		return core.Stats{}, err
	}
	tr.add(resume, "partition.plan", start, time.Now(), int64(len(ranges)))
	if err := core.EnsureRunManifest(dir, s.cfg, s.format, len(ranges)); err != nil {
		return core.Stats{}, err
	}
	if err := core.SweepTemps(dir); err != nil {
		return core.Stats{}, err
	}
	ids := make([]int, len(ranges))
	for i := range ids {
		ids[i] = i
	}
	todo, todoIDs := core.MissingParts(dir, s.format, ranges, ids)
	var missing []partition.Range
	var missingIDs []int
	hits := 0
	for i := range todo {
		start := time.Now()
		m, mid, h, err := core.FetchFromStore(st, s.cfg, dir, s.format, todo[i:i+1], todoIDs[i:i+1])
		if err != nil {
			return core.Stats{}, err
		}
		tr.add(resume, spanName("store.retrieve", todoIDs[i]), start, time.Now(), int64(h))
		missing, missingIDs, hits = append(missing, m...), append(missingIDs, mid...), hits+h
	}
	if len(missing) == 0 {
		return core.Stats{Ranges: ranges, PartsFromCache: hits}, nil
	}

	call := tr.begin(resume, "core.generate")
	inner := newTracedSinks(tr, call, core.AtomicPartSinks(dir, s.format, s.cfg.NumVertices(), missingIDs))
	ingesting := core.IngestingSinks(inner.factory, st, s.cfg, dir, s.format, missingIDs)
	closed := make([]time.Time, len(missing))
	sinks := func(worker int, r partition.Range) (gformat.Writer, error) {
		w, err := ingesting(worker, r)
		if err != nil {
			return nil, err
		}
		return &closeStamp{Writer: w, at: &closed[worker]}, nil
	}
	gst, err = core.GenerateRanges(s.cfg, missing, sinks)
	if err != nil {
		return gst, err
	}
	inner.record()
	for _, w := range inner.writers {
		tr.add(call, spanName("store.ingest", missingIDs[w.index]), w.closed, closed[w.index], w.BytesWritten())
		s.ingest += closed[w.index].Sub(w.closed)
	}
	tr.finish(call, gst.Edges)
	gst.Ranges = ranges
	gst.PartsFromCache = hits
	return gst, nil
}

// closeStamp notes when the wrapped writer's Close returned.
type closeStamp struct {
	gformat.Writer
	at *time.Time
}

func (c *closeStamp) Close() error {
	err := c.Writer.Close()
	*c.at = time.Now()
	return err
}

func (s *storeCycle) layers(lp *layerPass) error {
	if err := lp.common(s.cfg); err != nil {
		return err
	}
	if err := lp.partition(s.cfg, s.cfg.Workers); err != nil {
		return err
	}
	lp.set("partition.plan_share", lp.out["partition.plan_ms"]/1e3/median(s.coldWallSecs))
	if s.ingestDenom > 0 {
		lp.set("store.ingest_share", s.ingest.Seconds()/s.ingestDenom.Seconds())
	}
	lp.set("store.hit_share", float64(s.warmHits)/float64(s.warmParts))
	lp.set("store.cache_hit_edges_per_sec", float64(s.warmEdges)/s.warmWall.Seconds())
	lp.set("store.warm_call_p50_ms", median(s.warmCallMS))

	// The file sink against the discard sink for the same TSV bytes, then
	// the store's three passes over the files just written.
	var fileNS, checkMBs, manifestMS, ingestMBs, retrieveMBs, verifyMBs []float64
	mb := float64(s.ref.bytes) / 1e6
	n := 0
	err := lp.loopReps(func() error {
		n++
		dir := filepath.Join(s.base, fmt.Sprintf("layer%d", n))
		defer os.RemoveAll(dir)
		parts, got := filepath.Join(dir, "parts"), filepath.Join(dir, "got")
		for _, d := range []string{parts, got} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return err
			}
		}
		start := time.Now()
		if _, err := core.Generate(s.cfg, core.DiscardSinks(s.format)); err != nil {
			return err
		}
		discard := time.Since(start)
		start = time.Now()
		fst, err := core.Generate(s.cfg, core.FileSinks(parts, s.format, s.cfg.NumVertices()))
		if err != nil {
			return err
		}
		fileNS = append(fileNS, float64((time.Since(start)-discard).Nanoseconds())/float64(fst.Edges))

		start = time.Now()
		for i := range fst.Ranges {
			if err := core.CheckPart(core.PartPath(parts, s.format, i), s.format); err != nil {
				return err
			}
		}
		checkMBs = append(checkMBs, mb/time.Since(start).Seconds())

		start = time.Now()
		if err := core.EnsureRunManifest(got, s.cfg, s.format, len(fst.Ranges)); err != nil {
			return err
		}
		manifestMS = append(manifestMS, float64(time.Since(start).Nanoseconds())/1e6)

		st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
		if err != nil {
			return err
		}
		start = time.Now()
		for i, r := range fst.Ranges {
			if err := st.IngestFile(core.PartKey(s.cfg, s.format, r), core.PartPath(parts, s.format, i), r.Edges); err != nil {
				return err
			}
		}
		ingestMBs = append(ingestMBs, mb/time.Since(start).Seconds())
		start = time.Now()
		for i, r := range fst.Ranges {
			if _, ok, err := st.Retrieve(core.PartKey(s.cfg, s.format, r), core.PartPath(got, s.format, i)); err != nil || !ok {
				return fmt.Errorf("store retrieve of a part just ingested: hit %v, %v", ok, err)
			}
		}
		retrieveMBs = append(retrieveMBs, mb/time.Since(start).Seconds())
		start = time.Now()
		if _, corrupt, err := st.VerifyAll(); err != nil || len(corrupt) > 0 {
			return fmt.Errorf("store verify: %d corrupt, %v", len(corrupt), err)
		}
		verifyMBs = append(verifyMBs, mb/time.Since(start).Seconds())
		return nil
	})
	if err != nil {
		return err
	}
	lp.set("core.file_sink_ns_per_edge", median(fileNS))
	lp.set("core.check_part_mb_per_s", median(checkMBs))
	lp.set("core.manifest_ms", median(manifestMS))
	lp.set("store.ingest_mb_per_s", median(ingestMBs))
	lp.set("store.retrieve_mb_per_s", median(retrieveMBs))
	lp.set("store.verify_mb_per_s", median(verifyMBs))
	return nil
}
