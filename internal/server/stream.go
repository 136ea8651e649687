// Package server implements the TrillionG generation service: an HTTP
// API that streams synthetic graphs on demand instead of batching them
// to disk. Because the graph is a pure function of (Config, MasterSeed)
// and every scope needs only O(d_max) memory (Sections 3-4), any vertex
// range of any configuration can be produced statelessly, with
// deterministic bytes — the service is a thin ordered pipeline over the
// same generator the batch path uses, so a streamed range is
// bit-identical to the same range of core.Generate's part files.
//
// The package has four parts: the ordered bounded-channel streaming
// engine (stream.go), the job registry (jobs.go), the HTTP layer
// (server.go) and the expvar-style live counters (metrics.go).
package server

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/avs"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/rng"
)

// defaultDepth is the per-producer channel capacity: how many finished
// scopes one producer may run ahead of the encoder.
const defaultDepth = 32

// StreamOptions tunes StreamRange.
type StreamOptions struct {
	// Workers is the number of producer goroutines (0 = the config's
	// Workers, else GOMAXPROCS).
	Workers int
	// Depth is each producer's channel capacity (0 = 32). Total
	// run-ahead — and therefore stream memory — is bounded by
	// Workers·(Depth+1) scopes.
	Depth int
	// OnScope, if non-nil, is called from the encoding goroutine after
	// each scope has been written out.
	OnScope func(src int64, edges int)
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

// scopeMsg is one generated scope in flight from a producer to the
// encoder.
type scopeMsg struct {
	src      int64
	dsts     []int64
	attempts int64
}

// pipeline generates the scopes of [lo, hi) with a fixed producer pool
// while preserving vertex order: vertex u is produced by worker
// (u-lo) mod W into that worker's bounded channel, and the consumer
// reads the channels round-robin, so scopes are consumed in exactly
// the order a sequential generator would emit them.
//
// Backpressure is structural: when the consumer stalls (a slow HTTP
// client), each producer blocks after Depth buffered scopes plus the
// one in its hands, so run-ahead never exceeds W·(Depth+1) scopes and
// stream memory stays O(workers · d_max).
type pipeline struct {
	lo, hi  int64
	workers int
	out     []chan scopeMsg
	free    []chan []int64
	accts   []memacct.Acct
	// generated counts scopes completed by producers; generated minus
	// the consumer's count is the live run-ahead gauge.
	generated atomic.Int64
	wg        sync.WaitGroup
}

// newPipeline validates the configuration and builds one generator per
// producer. Producers do not run until start is called.
func newPipeline(cfg core.Config, lo, hi int64, workers, depth int) (*pipeline, []*avs.Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if lo < 0 || hi < lo || hi > cfg.NumVertices() {
		return nil, nil, fmt.Errorf("server: range [%d, %d) outside [0, %d)", lo, hi, cfg.NumVertices())
	}
	if workers < 1 {
		workers = cfg.Workers
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n := hi - lo; n > 0 && int64(workers) > n {
		workers = int(n)
	}
	if depth < 1 {
		depth = defaultDepth
	}
	p := &pipeline{
		lo:      lo,
		hi:      hi,
		workers: workers,
		out:     make([]chan scopeMsg, workers),
		free:    make([]chan []int64, workers),
		accts:   make([]memacct.Acct, workers),
	}
	gens := make([]*avs.Generator, workers)
	for i := range gens {
		g, err := core.NewScopeGenerator(cfg, &p.accts[i])
		if err != nil {
			return nil, nil, err
		}
		gens[i] = g
		p.out[i] = make(chan scopeMsg, depth)
		p.free[i] = make(chan []int64, depth+1)
		for j := 0; j < depth+1; j++ {
			p.free[i] <- nil
		}
	}
	return p, gens, nil
}

// start launches the producers. They exit when their share of the
// range is generated or ctx is cancelled, closing their channel either
// way.
func (p *pipeline) start(ctx context.Context, masterSeed uint64, gens []*avs.Generator) {
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go func(w int, g *avs.Generator) {
			defer p.wg.Done()
			defer close(p.out[w])
			var src rng.Source // reseeded per scope: no allocation per vertex
			for u := p.lo + int64(w); u < p.hi; u += int64(p.workers) {
				var buf []int64
				select {
				case buf = <-p.free[w]:
				case <-ctx.Done():
					return
				}
				src.Reseed(masterSeed, uint64(u))
				res := g.Scope(u, &src, buf[:0])
				p.generated.Add(1)
				select {
				case p.out[w] <- scopeMsg{src: u, dsts: res.Dsts, attempts: res.Attempts}:
				case <-ctx.Done():
					return
				}
			}
		}(w, gens[w])
	}
}

// next returns the scope of vertex u, blocking on its producer or ctx.
func (p *pipeline) next(ctx context.Context, u int64) (scopeMsg, error) {
	w := int((u - p.lo) % int64(p.workers))
	select {
	case msg, ok := <-p.out[w]:
		if !ok {
			// The producer only quits early on cancellation.
			if err := ctx.Err(); err != nil {
				return scopeMsg{}, err
			}
			return scopeMsg{}, context.Canceled
		}
		return msg, nil
	case <-ctx.Done():
		return scopeMsg{}, ctx.Err()
	}
}

// recycle returns a consumed scope's buffer to its producer. The free
// channels are sized so this never blocks.
func (p *pipeline) recycle(u int64, buf []int64) {
	p.free[int((u-p.lo)%int64(p.workers))] <- buf
}

// peakBytes reports the largest producer working set. Call only after
// the producers have exited.
func (p *pipeline) peakBytes() int64 {
	var peak int64
	for i := range p.accts {
		if b := p.accts[i].Peak(); b > peak {
			peak = b
		}
	}
	return peak
}

// newStreamWriter wraps w in the format's encoder. CSR6 needs a
// seekable sink (its offset table is backfilled), so only the
// concatenation-safe formats stream.
func newStreamWriter(format gformat.Format, w io.Writer) (gformat.Writer, error) {
	switch format {
	case gformat.TSV:
		return gformat.NewTSVWriter(w), nil
	case gformat.ADJ6:
		return gformat.NewADJ6Writer(w), nil
	default:
		return nil, fmt.Errorf("server: format %v is not streamable (use tsv or adj6)", format)
	}
}

// StreamRange streams the scopes of the vertex range [lo, hi) into w
// in the given format. The bytes are identical to the corresponding
// slice of the part files core.Generate would write for the same
// (Config, MasterSeed): scopes appear in vertex order and every scope
// is encoded exactly as the batch writers encode it.
//
// Generation runs through a bounded channel pipeline (see pipeline),
// so a slow w throttles the producers and memory stays
// O(Workers · d_max) regardless of range size. Cancelling ctx aborts
// the stream and returns the context's error.
func StreamRange(ctx context.Context, cfg core.Config, format gformat.Format, lo, hi int64, w io.Writer, opt StreamOptions) (StreamStats, error) {
	enc, err := newStreamWriter(format, w)
	if err != nil {
		return StreamStats{}, err
	}
	p, gens, err := newPipeline(cfg, lo, hi, opt.Workers, opt.Depth)
	if err != nil {
		return StreamStats{}, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer p.wg.Wait()
	defer cancel()
	p.start(ctx, cfg.MasterSeed, gens)

	var st StreamStats
	for u := lo; u < hi; u++ {
		msg, err := p.next(ctx, u)
		if err != nil {
			return st, err
		}
		if err := enc.WriteScope(msg.src, msg.dsts); err != nil {
			st.BytesWritten = enc.BytesWritten()
			return st, err
		}
		st.Scopes++
		st.Edges += int64(len(msg.dsts))
		st.Attempts += msg.attempts
		if d := int64(len(msg.dsts)); d > st.MaxDegree {
			st.MaxDegree = d
		}
		if opt.OnScope != nil {
			opt.OnScope(msg.src, len(msg.dsts))
		}
		p.recycle(u, msg.dsts)
	}
	if err := enc.Close(); err != nil {
		st.BytesWritten = enc.BytesWritten()
		return st, err
	}
	st.BytesWritten = enc.BytesWritten()
	cancel()
	p.wg.Wait()
	st.PeakWorkerBytes = p.peakBytes()
	return st, nil
}
