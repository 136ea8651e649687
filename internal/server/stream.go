// Package server implements the TrillionG generation service: an HTTP
// API that streams synthetic graphs on demand instead of batching them
// to disk. Because the graph is a pure function of (Config, MasterSeed)
// and every scope needs only O(d_max) memory (Sections 3-4), any vertex
// range of any configuration can be produced statelessly, with
// deterministic bytes — a stream is an ordered schedule of the same
// parts the batch path writes, run by the same executor
// (core.StreamParts), so a streamed range is bit-identical to the same
// range of core.Generate's part files.
//
// The package has four parts: the part schedules a stream runs
// (stream.go), the job registry (jobs.go), the HTTP layer (server.go)
// and the expvar-style live counters (metrics.go).
package server

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
)

// StreamOptions tunes StreamRange.
type StreamOptions struct {
	// Workers is the number of parts generated concurrently (0 = the
	// config's Workers, else GOMAXPROCS).
	Workers int
}

// StreamStats reports one completed stream.
type StreamStats struct {
	// Scopes is the number of source vertices streamed (including
	// empty ones).
	Scopes int64
	// Edges is the number of edges streamed.
	Edges int64
	// Attempts counts stochastic trials including in-scope duplicates.
	Attempts int64
	// MaxDegree is the largest streamed out-degree.
	MaxDegree int64
	// BytesWritten is the encoded output volume.
	BytesWritten int64
	// PeakWorkerBytes is the largest tracked working set of any
	// producer — the O(d_max) bound of Table 1.
	PeakWorkerBytes int64
}

// partSchedule is the lazy, ordered part list core.StreamParts runs.
type partSchedule = func() (id int, r partition.Range, ok bool)

// chunkEdges is the expected-edge budget of one part of a parallel
// classic stream: under 0.8 MB of TSV even at 11-digit ids, so a part
// running ahead fits core.StreamParts' 1 MiB slot and never stalls.
const chunkEdges = 1 << 15

// cutRange schedules the classic stream of [lo, hi): one part for a
// single worker (the stream is then exactly a batch part), else chunks
// of about chunkEdges expected edges — at least one vertex each — cut
// on demand by core.CutRows from Theorem 1's closed-form prefix mass,
// because a Scale-34 range has millions of them.
func cutRange(cfg core.Config, lo, hi int64, workers int) partSchedule {
	id := 0
	// Validated once per schedule, not once per probe; both callers have
	// checked cfg already, so this cannot fail.
	part, _ := cfg.OpenPart(0, partition.Range{Lo: lo, Hi: hi})
	return func() (int, partition.Range, bool) {
		if lo >= hi {
			return 0, partition.Range{}, false
		}
		r := partition.Range{Lo: lo, Hi: hi}
		if workers > 1 {
			r.Hi = core.CutRows(part.ExpectedEdges, lo, hi, chunkEdges)
		}
		lo = r.Hi
		id++
		return id - 1, r, true
	}
}

// listParts schedules an explicit plan, in order.
func listParts(ranges []partition.Range, ids []int) partSchedule {
	i := 0
	return func() (int, partition.Range, bool) {
		if i == len(ids) {
			return 0, partition.Range{}, false
		}
		i++
		return ids[i-1], ranges[i-1], true
	}
}

// StreamRange streams the scopes of the vertex range [lo, hi) into w
// in the given format. The bytes are identical to the corresponding
// slice of the part files core.Generate would write for the same
// (Config, MasterSeed): scopes appear in vertex order and every scope
// is encoded exactly as the batch writers encode it.
//
// Generation is core.StreamParts over cutRange's schedule, so a slow w
// throttles the generators and memory stays O(Workers · d_max)
// regardless of range size. Cancelling ctx aborts the stream and
// returns the context's error.
func StreamRange(ctx context.Context, cfg core.Config, format gformat.Format, lo, hi int64, w io.Writer, opt StreamOptions) (StreamStats, error) {
	if err := cfg.Validate(); err != nil {
		return StreamStats{}, err
	}
	if lo < 0 || hi < lo || hi > cfg.NumVertices() {
		return StreamStats{}, fmt.Errorf("server: range [%d, %d) outside [0, %d)", lo, hi, cfg.NumVertices())
	}
	workers := opt.Workers
	if workers < 1 {
		workers = cfg.Workers
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	st, err := core.StreamParts(ctx, cfg, format, cutRange(cfg, lo, hi, workers), workers, w, nil)
	return StreamStats{
		Scopes:          st.Scopes,
		Edges:           st.Edges,
		Attempts:        st.Attempts,
		MaxDegree:       st.MaxDegree,
		BytesWritten:    st.BytesWritten,
		PeakWorkerBytes: st.PeakWorkerBytes,
	}, err
}
