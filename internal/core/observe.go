package core

import (
	"time"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// Stage and metric names the core pipeline publishes when a run is
// observed. Consumers (bench/, the dist worker, dashboards)
// key off these; docs/OBSERVABILITY.md is the catalog.
const (
	// StagePlan is the Figure 6 planning stage (core.Plan).
	StagePlan = "core.plan"
	// StageRecvecBuild is the scope-generator construction stage (one
	// call per part, items = parts: the time of every thread that built
	// the part a generator, summed). The per-scope refill of the
	// recursive vector is part of StageScopeDraw.
	StageRecvecBuild = "core.recvec_build"
	// StageScopeDraw is the stochastic scope/degree draw stage: thread
	// time spent in Algorithm 4 proper, excluding encoding and I/O
	// (items = scopes drawn).
	StageScopeDraw = "core.scope_draw"
	// StageSinkWrite is the edge-encode + sink-write stage (items =
	// edges written).
	StageSinkWrite = "core.sink_write"

	// MetricScopes / MetricEdges / MetricAttempts / MetricBytes are the
	// run-wide totals; MetricEdgesPerSec is a fixed-window rate over
	// the edge total.
	MetricScopes      = "core.scopes_total"
	MetricEdges       = "core.edges_total"
	MetricAttempts    = "core.attempts_total"
	MetricBytes       = "core.bytes_total"
	MetricEdgesPerSec = "core.edges_per_sec"
)

// SinkMetric returns the per-format counter name ObservedSinks feeds:
// SinkMetric(ADJ6, "edges") = "core.sink.adj6.edges_total".
func SinkMetric(format gformat.Format, what string) string {
	return "core.sink." + extOf(format) + "." + what + "_total"
}

// ObservedSinks wraps a sink factory so every writer feeds the
// registry's per-format byte and edge counters as it goes. Wrap the
// innermost factory (file, atomic or discard sinks) — the counters see
// exactly what reaches the format encoder.
func ObservedSinks(inner SinkFactory, format gformat.Format, tel *telemetry.Registry) SinkFactory {
	if tel == nil {
		return inner
	}
	edges := tel.Counter(SinkMetric(format, "edges"))
	bytes := tel.Counter(SinkMetric(format, "bytes"))
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		w, err := inner(worker, r)
		if err != nil {
			return nil, err
		}
		return &countingWriter{Writer: w, edges: edges, bytes: bytes}, nil
	}
}

// countingWriter forwards to the wrapped writer and settles the
// registry counters incrementally, so live scrapers (the dist worker's
// /metrics listener) see progress mid-part, not only at Close.
type countingWriter struct {
	gformat.Writer
	edges, bytes       *telemetry.Counter
	lastEdges, lastOut int64
}

func (c *countingWriter) WriteScope(src int64, dsts []int64) error {
	if err := c.Writer.WriteScope(src, dsts); err != nil {
		return err
	}
	c.settle()
	return nil
}

func (c *countingWriter) Close() error {
	err := c.Writer.Close()
	c.settle()
	return err
}

// settle publishes the writer's counter growth since the last call.
// The writer is called from one goroutine at a time (whichever thread
// holds the head of the part), so the local bookkeeping needs no locks;
// only the registry adds are atomic.
func (c *countingWriter) settle() {
	if e := c.Writer.EdgesWritten(); e != c.lastEdges {
		c.edges.Add(e - c.lastEdges)
		c.lastEdges = e
	}
	if b := c.Writer.BytesWritten(); b != c.lastOut {
		c.bytes.Add(b - c.lastOut)
		c.lastOut = b
	}
}

// timedWriter measures the wall time a part spends inside the format
// encoder and sink (WriteScope and Close), accumulating locally so the
// per-scope cost is two clock reads, no shared state. drawParts wraps
// each part's writer in one to attribute the threads' time on the part
// to the draw and write stages after the fact.
type timedWriter struct {
	gformat.Writer
	elapsed time.Duration
	scopes  int64
	rate    *telemetry.RateGauge
}

func (t *timedWriter) WriteScope(src int64, dsts []int64) error {
	start := time.Now()
	err := t.Writer.WriteScope(src, dsts)
	t.elapsed += time.Since(start)
	t.scopes++
	if t.rate != nil {
		t.rate.Add(int64(len(dsts)))
	}
	return err
}

func (t *timedWriter) Close() error {
	start := time.Now()
	err := t.Writer.Close()
	t.elapsed += time.Since(start)
	return err
}
