package core

import (
	"fmt"
	"sync"
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
		out.Edges += st.Edges
		out.Attempts += st.Attempts
		out.BytesWritten += st.BytesWritten
		out.MaxDegree = max(out.MaxDegree, st.MaxDegree)
		out.PeakWorkerBytes = max(out.PeakWorkerBytes, st.PeakWorkerBytes)
	}
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("core: worker %d: %w", i, err)
		}
	}
	return out, nil
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
