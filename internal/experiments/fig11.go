package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/kronecker"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/skg"
	"repro/internal/wesp"
)

// Fig11aRow is one (method, scale) single-thread measurement.
type Fig11aRow struct {
	Method  string
	Scale   int
	Elapsed time.Duration
	OOM     bool
	Edges   int64
}

// Fig11aResult is the single-threaded comparison of Figure 11a:
// RMAT-mem, RMAT-disk, FastKronecker and TrillionG/seq, with a memory
// cap that reproduces the O.O.M. points.
type Fig11aResult struct {
	Rows []Fig11aRow
	// MemCapBytes is the per-process cap used to produce O.O.M.
	MemCapBytes int64
}

// Fig11a runs the sweep. memCapBytes scales the paper's 32 GB down to
// the test sizes (default: enough for the small scales, exceeded by the
// large ones, mirroring the paper's O.O.M. at Scale 26).
func Fig11a(scales []int, memCapBytes int64, dir string) (*Fig11aResult, error) {
	if len(scales) == 0 {
		scales = []int{14, 15, 16, 17}
	}
	if memCapBytes == 0 {
		// Cap sized so the in-memory methods fail at the top scale:
		// |E|·16B at second-to-last scale.
		memCapBytes = (int64(16) << uint(scales[len(scales)-1]-1)) * memacct.EdgeBytes
	}
	res := &Fig11aResult{MemCapBytes: memCapBytes}
	seed := skg.Graph500Seed

	for _, sc := range scales {
		edges := int64(16) << uint(sc)

		// RMAT-mem.
		start := time.Now()
		r, err := rmat.Mem(rmat.Config{
			Seed: seed, Levels: sc, NumEdges: edges, MemLimitBytes: memCapBytes,
		}, 301, nil, nil)
		row := Fig11aRow{Method: "RMAT-mem", Scale: sc, Elapsed: time.Since(start), Edges: r.Edges}
		if errors.Is(err, rmat.ErrOutOfMemory) {
			row.OOM, row.Elapsed = true, 0
		} else if err != nil {
			return nil, fmt.Errorf("fig11a RMAT-mem scale %d: %w", sc, err)
		}
		res.Rows = append(res.Rows, row)

		// RMAT-disk.
		start = time.Now()
		rd, err := rmat.Disk(rmat.Config{Seed: seed, Levels: sc, NumEdges: edges, RunEdges: 1 << 18},
			302, dir, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("fig11a RMAT-disk scale %d: %w", sc, err)
		}
		res.Rows = append(res.Rows, Fig11aRow{
			Method: "RMAT-disk", Scale: sc, Elapsed: time.Since(start), Edges: rd.Edges,
		})

		// FastKronecker.
		start = time.Now()
		kr, err := kronecker.Fast(kronecker.Config{
			Seed: kronecker.FromSeed2(seed), Depth: sc, NumEdges: edges, MemLimitBytes: memCapBytes,
		}, 303, nil, nil)
		row = Fig11aRow{Method: "FastKronecker", Scale: sc, Elapsed: time.Since(start), Edges: kr.Edges}
		if errors.Is(err, kronecker.ErrOutOfMemory) {
			row.OOM, row.Elapsed = true, 0
		} else if err != nil {
			return nil, fmt.Errorf("fig11a FastKronecker scale %d: %w", sc, err)
		}
		res.Rows = append(res.Rows, row)

		// TrillionG/seq (never OOMs: O(d_max) ≪ cap at any of these scales).
		cfg := core.DefaultConfig(sc)
		cfg.MasterSeed = 304
		st, err := core.GenerateSeq(cfg, core.DiscardSinks(gformat.ADJ6))
		if err != nil {
			return nil, fmt.Errorf("fig11a TrillionG/seq scale %d: %w", sc, err)
		}
		res.Rows = append(res.Rows, Fig11aRow{
			Method: "TrillionG/seq", Scale: sc, Elapsed: st.Elapsed, Edges: st.Edges,
		})
	}
	return res, nil
}

// Time returns a cell's elapsed time (0 if missing or OOM).
func (r *Fig11aResult) Time(method string, scale int) time.Duration {
	for _, row := range r.Rows {
		if row.Method == method && row.Scale == scale && !row.OOM {
			return row.Elapsed
		}
	}
	return 0
}

// OOM reports whether a cell ran out of memory.
func (r *Fig11aResult) OOM(method string, scale int) bool {
	for _, row := range r.Rows {
		if row.Method == method && row.Scale == scale {
			return row.OOM
		}
	}
	return false
}

// Report renders the figure.
func (r *Fig11aResult) Report() Report {
	rep := Report{
		Title:   "Figure 11a — single-threaded methods (memory cap " + fmtBytes(r.MemCapBytes) + ")",
		Columns: []string{"method", "scale", "time", "edges"},
		Notes: []string{
			"TrillionG/seq is fastest at every scale and never O.O.M.s; the in-memory baselines die first.",
		},
	}
	for _, row := range r.Rows {
		t := fmtDur(row.Elapsed)
		if row.OOM {
			t = "O.O.M."
		}
		rep.Rows = append(rep.Rows, []string{
			row.Method, fmt.Sprintf("%d", row.Scale), t, fmt.Sprintf("%d", row.Edges),
		})
	}
	return rep
}

// Fig11bRow is one (method, scale) distributed measurement.
type Fig11bRow struct {
	Method  string
	Scale   int
	Elapsed time.Duration // simulated cluster time
	OOM     bool
	Edges   int64
	Bytes   int64
	// StoreTime and NetworkTime are the modeled terms of Elapsed —
	// deterministic functions of bytes stored and bytes shuffled, where
	// the compute term is host wall time.
	StoreTime, NetworkTime time.Duration
}

// Fig11bResult is the distributed comparison of Figure 11b: RMAT/p-mem,
// RMAT/p-disk, TrillionG (TSV) and TrillionG (ADJ6) on a simulated
// 10×6 cluster with 1 GbE and an HDD storage model.
type Fig11bResult struct {
	Rows    []Fig11bRow
	Cluster cluster.Config
	// DiskBytesPerSec is the per-machine storage bandwidth model used
	// to charge the time of persisting the output.
	DiskBytesPerSec float64
}

// Fig11b runs the sweep.
func Fig11b(scales []int, cc cluster.Config, memCapBytes int64, dir string) (*Fig11bResult, error) {
	if len(scales) == 0 {
		scales = []int{14, 15, 16}
	}
	if cc.Machines == 0 {
		cc = cluster.Config{
			Machines: 10, ThreadsPerMachine: 6,
			BandwidthBytesPerSec: cluster.OneGbE, LatencySec: 0.001,
		}
	}
	if memCapBytes == 0 {
		memCapBytes = (int64(16) << uint(scales[len(scales)-1]-1)) * memacct.EdgeBytes / int64(cc.Machines)
	}
	res := &Fig11bResult{Cluster: cc, DiskBytesPerSec: 150e6}

	for _, sc := range scales {
		edges := int64(16) << uint(sc)

		// RMAT/p-mem.
		wcfg := wesp.Config{
			Seed: skg.Graph500Seed, Levels: sc, NumEdges: edges,
			Epsilon: 0.01, Cluster: cc, MemLimitBytes: memCapBytes,
		}
		wres, err := wesp.Run(wcfg, 401, nil)
		row := Fig11bRow{Method: "RMAT/p-mem", Scale: sc, Edges: wres.Edges}
		if errors.Is(err, wesp.ErrOutOfMemory) {
			row.OOM = true
		} else if err != nil {
			return nil, fmt.Errorf("fig11b RMAT/p-mem scale %d: %w", sc, err)
		} else {
			row.StoreTime, row.NetworkTime = res.storeTime(wres.Edges*12), wres.Sim.NetworkTime()
			row.Elapsed = wres.Sim.Elapsed() + row.StoreTime
		}
		res.Rows = append(res.Rows, row)

		// RMAT/p-disk.
		dcfg := wcfg
		dcfg.MemLimitBytes = 0
		dcfg.Disk = true
		dcfg.Dir = dir
		dcfg.RunEdges = 1 << 17
		dres, err := wesp.Run(dcfg, 401, nil)
		if err != nil {
			return nil, fmt.Errorf("fig11b RMAT/p-disk scale %d: %w", sc, err)
		}
		store := res.storeTime(dres.Edges * 12)
		res.Rows = append(res.Rows, Fig11bRow{
			Method: "RMAT/p-disk", Scale: sc,
			Elapsed:   dres.Sim.Elapsed() + store,
			Edges:     dres.Edges,
			StoreTime: store, NetworkTime: dres.Sim.NetworkTime(),
		})

		// TrillionG in TSV and ADJ6.
		for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
			row, err := res.trillionG(sc, format)
			if err != nil {
				return nil, fmt.Errorf("fig11b TrillionG %v scale %d: %w", format, sc, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// storeTime charges persisting `bytes` across the cluster's disks.
func (r *Fig11bResult) storeTime(bytes int64) time.Duration {
	perMachine := float64(bytes) / float64(r.Cluster.Machines)
	return time.Duration(perMachine / r.DiskBytesPerSec * float64(time.Second))
}

// trillionG runs TrillionG on the simulated cluster: plan once, then a
// generation phase (per-worker compute, AVS partition), then a modeled
// store of the format's bytes. No shuffle phase exists.
func (r *Fig11bResult) trillionG(scale int, format gformat.Format) (Fig11bRow, error) {
	sim, err := cluster.New(r.Cluster)
	if err != nil {
		return Fig11bRow{}, err
	}
	cfg := core.DefaultConfig(scale)
	cfg.MasterSeed = 402
	cfg.Workers = r.Cluster.Workers()

	ranges, err := core.Plan(cfg, cfg.Workers)
	if err != nil {
		return Fig11bRow{}, err
	}
	// Real format writers over io.Discard: serialization CPU (decimal
	// formatting for TSV, binary packing for ADJ6) is charged to the
	// worker, exactly as on a real machine; only the disk itself is
	// modeled.
	var edges, bytes int64
	err = sim.RunPhase("generate", func(w cluster.Worker) error {
		st, err := core.GenerateRanges(cfg, ranges[w.Index:w.Index+1], func(int, partition.Range) (gformat.Writer, error) {
			return gformat.NewWriter(io.Discard, format, 0)
		})
		edges += st.Edges
		bytes += st.BytesWritten
		return err
	})
	if err != nil {
		return Fig11bRow{}, err
	}
	sim.AddModeledTime("store", r.storeTime(bytes))
	return Fig11bRow{
		Method: "TrillionG (" + format.String() + ")", Scale: scale, Elapsed: sim.Elapsed(), Edges: edges, Bytes: bytes,
		StoreTime: r.storeTime(bytes), NetworkTime: sim.NetworkTime(),
	}, nil
}

// Time returns a cell's elapsed time (0 if missing or OOM).
func (r *Fig11bResult) Time(method string, scale int) time.Duration {
	for _, row := range r.Rows {
		if row.Method == method && row.Scale == scale && !row.OOM {
			return row.Elapsed
		}
	}
	return 0
}

// Report renders the figure.
func (r *Fig11bResult) Report() Report {
	rep := Report{
		Title: fmt.Sprintf("Figure 11b — distributed methods (%d machines × %d threads, 1 GbE, %s/s disks)",
			r.Cluster.Machines, r.Cluster.ThreadsPerMachine, fmtBytes(int64(r.DiskBytesPerSec))),
		Columns: []string{"method", "scale", "sim time", "edges", "output bytes"},
		Notes: []string{
			"Times are simulated-cluster makespans: per-worker compute + modeled network + modeled store.",
			"TrillionG has no shuffle/merge; ADJ6 beats TSV via output volume.",
		},
	}
	for _, row := range r.Rows {
		t := fmtDur(row.Elapsed)
		if row.OOM {
			t = "O.O.M."
		}
		b := "-"
		if row.Bytes > 0 {
			b = fmtBytes(row.Bytes)
		}
		rep.Rows = append(rep.Rows, []string{
			row.Method, fmt.Sprintf("%d", row.Scale), t, fmt.Sprintf("%d", row.Edges), b,
		})
	}
	return rep
}
