// Package server implements the TrillionG generation service: an HTTP
// API that streams synthetic graphs on demand instead of batching them
// to disk. Because the graph is a pure function of (Config, MasterSeed)
// and every scope needs only O(d_max) memory (Sections 3-4), any vertex
// range of any configuration can be produced statelessly, with
// deterministic bytes — a stream is an ordered run of the chunk
// scheduler that writes the batch path's part files (core.StreamParts):
// a classic job is one part, its vertex range, and a community job the
// layout's blocks, so a streamed range is bit-identical to the same
// range of core.Generate's part files.
//
// The package has four parts: StreamRange (stream.go), the job registry
// (jobs.go), the HTTP layer (server.go) and the expvar-style live
// counters (metrics.go).
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
	// Workers is the number of threads generating the stream, at most
	// GOMAXPROCS (0 = the config's Workers, else GOMAXPROCS).
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

// StreamRange streams the scopes of the vertex range [lo, hi) into w
// in the given format. The bytes are identical to the corresponding
// slice of the part files core.Generate would write for the same
// (Config, MasterSeed): scopes appear in vertex order and every scope
// is encoded exactly as the batch writers encode it.
//
// Generation is core.StreamParts over the one part [lo, hi), which the
// chunk scheduler shares among the workers, so a slow w throttles the
// generators and memory stays O(Workers · d_max) regardless of range
// size. Cancelling ctx aborts the stream and returns the context's
// error.
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
	st, err := core.StreamParts(ctx, cfg, format, []partition.Range{{Lo: lo, Hi: hi}}, []int{0}, workers, w, nil, nil)
	return StreamStats{
		Scopes:          st.Scopes,
		Edges:           st.Edges,
		Attempts:        st.Attempts,
		MaxDegree:       st.MaxDegree,
		BytesWritten:    st.BytesWritten,
		PeakWorkerBytes: st.PeakWorkerBytes,
	}, err
}
