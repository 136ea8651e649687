package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/telemetry"
)

// batch is core.Generate into discard sinks: no encoder bytes leave the
// process, no files, so what it times is plan + RecVec + draw + dedup.
type batch struct {
	name   string
	cfg    core.Config
	format gformat.Format
	want   core.Stats // the warm-up's counts
	sparse bool
}

func setupBatchSparse(e env) (instance, error) {
	cfg := core.DefaultConfig(pick(e, 18, 11))
	cfg.MasterSeed = e.master(1)
	cfg.Workers = e.W
	return setupBatch(e, "batch-sparse", cfg, true)
}

func setupBatchDense(e env) (instance, error) {
	cfg := core.DefaultConfig(pick(e, 13, 8))
	cfg.EdgeFactor = pick[int64](e, 128, 32)
	cfg.MasterSeed = e.master(2)
	cfg.Workers = e.W
	return setupBatch(e, "batch-dense", cfg, false)
}

func setupBatch(e env, name string, cfg core.Config, sparse bool) (instance, error) {
	b := &batch{name: name, cfg: cfg, format: gformat.ADJ6, sparse: sparse}
	st, err := core.Generate(cfg, core.DiscardSinks(b.format))
	if err != nil {
		return nil, err
	}
	// Count invariants hold for every seed; exact counts are pinned for
	// the default one.
	if st.Edges <= 0 || float64(st.Edges) > 1.05*float64(cfg.NumEdges()) || st.Attempts < st.Edges || st.BytesWritten < 6*st.Edges {
		return nil, fmt.Errorf("%s: implausible counts: %d edges of %d planned, %d attempts, %d bytes",
			name, st.Edges, cfg.NumEdges(), st.Attempts, st.BytesWritten)
	}
	if g, ok := golden(name, e.smoke, e.seed); ok {
		if err := g.check(st.Edges, st.BytesWritten); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	b.want = st
	return b, nil
}

func (b *batch) size() string {
	return fmt.Sprintf("scale %d, edge factor %d, %d workers, %v discard: %d edges, %d attempts",
		b.cfg.Scale, b.cfg.EdgeFactor, b.cfg.Workers, b.format, b.want.Edges, b.want.Attempts)
}

func (b *batch) close() {}

func (b *batch) rep(tr *tracer) (repResult, error) {
	sinks := core.DiscardSinks(b.format)
	var ts *tracedSinks
	root := tr.begin(0, b.name)
	call := tr.begin(root, "core.generate")
	if tr != nil {
		ts = newTracedSinks(tr, call, sinks)
		sinks = ts.factory
	}
	start := time.Now()
	st, err := core.Generate(b.cfg, sinks)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	if tr != nil {
		// Generate plans, then asks for the sinks, then runs the workers.
		tr.add(call, "partition.plan", start, ts.first, int64(len(st.Ranges)))
		ts.record()
	}
	tr.finish(call, st.Edges)
	tr.finish(root, st.Edges)
	return repResult{
		wall: wall, edges: st.Edges, bytes: st.BytesWritten,
		jobs: []time.Duration{wall},
		ops:  1, failed: sameCounts(b.name, st.Edges, st.BytesWritten, b.want.Edges, b.want.BytesWritten),
	}, nil
}

func (b *batch) layers(lp *layerPass) error {
	if err := lp.common(b.cfg); err != nil {
		return err
	}
	if err := lp.avs(b.cfg); err != nil {
		return err
	}
	lp.set("avs.attempts_per_edge", float64(b.want.Attempts)/float64(b.want.Edges))
	lp.set("avs.peak_worker_kib", float64(b.want.PeakWorkerBytes)/1024)
	if err := lp.partition(b.cfg, b.cfg.Workers); err != nil {
		return err
	}
	// The single-thread baseline and what W workers make of it.
	var seq []float64
	err := lp.loopReps(func() error {
		start := time.Now()
		st, err := core.GenerateSeq(b.cfg, core.DiscardSinks(b.format))
		seq = append(seq, float64(st.Edges)/time.Since(start).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	lp.set("core.seq_edges_per_sec", median(seq))
	lp.set("core.scaling_efficiency", lp.untracedRate/(float64(b.cfg.Workers)*median(seq)))
	if !b.sparse {
		return nil
	}
	// What attaching a registry costs: the observed entry points against
	// the plain one, alternating so drift hits both sides.
	var plain, observed []float64
	err = lp.loopReps(func() error {
		start := time.Now()
		if _, err := core.Generate(b.cfg, core.DiscardSinks(b.format)); err != nil {
			return err
		}
		plain = append(plain, time.Since(start).Seconds())
		tel := telemetry.NewRegistry()
		start = time.Now()
		_, err := core.GenerateObserved(b.cfg, core.ObservedSinks(core.DiscardSinks(b.format), b.format, tel), tel)
		observed = append(observed, time.Since(start).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	lp.set("telemetry.observe_overhead_share", median(observed)/median(plain)-1)
	return nil
}
