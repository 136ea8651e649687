package core

import (
	"repro/internal/gformat"
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

// ObservedSinks returns inner.
//
// Deprecated: the per-format core.sink.<fmt>.{edges,bytes}_total
// counters it fed are retired — a run has one format, and
// core.edges_total and core.bytes_total carry the same numbers, settled
// once per written chunk by the part executor.
func ObservedSinks(inner SinkFactory, _ gformat.Format, _ *telemetry.Registry) SinkFactory {
	return inner
}

// coreMeters are a registry's run totals, which the part executor
// settles once per written chunk.
type coreMeters struct {
	scopes, edges, attempts, bytes *telemetry.Counter
	rate                           *telemetry.RateGauge
}

// newCoreMeters returns tel's run totals, or nil without a registry.
func newCoreMeters(tel *telemetry.Registry) *coreMeters {
	if tel == nil {
		return nil
	}
	return &coreMeters{
		scopes:   tel.Counter(MetricScopes),
		edges:    tel.Counter(MetricEdges),
		attempts: tel.Counter(MetricAttempts),
		bytes:    tel.Counter(MetricBytes),
		rate:     tel.RateGauge(MetricEdgesPerSec, 0),
	}
}

// add counts done's work into the totals; a nil m counts nothing.
func (m *coreMeters) add(done Stats) {
	if m == nil {
		return
	}
	m.scopes.Add(done.Scopes)
	m.edges.Add(done.Edges)
	m.attempts.Add(done.Attempts)
	m.bytes.Add(done.BytesWritten)
	m.rate.Add(done.Edges)
}
