package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/graph500"
	"repro/internal/memacct"
	"repro/internal/rng"
	"repro/internal/skg"
)

// Fig14Row is one (method, network, scale) measurement.
type Fig14Row struct {
	Method  string
	Network string
	Scale   int
	Elapsed time.Duration
	OOM     bool
	// NetworkTime is the modeled transfer time (deterministic: bytes
	// over bandwidth), the quantity that separates the networks.
	NetworkTime time.Duration
	// ConstructionRatio is shuffle+construct time over total (Fig 14b),
	// as measured on this host.
	ConstructionRatio float64
	// Shuffled counts construction work instead of timing it: the edges
	// shipped through the all-to-all shuffle and sorted into the
	// receiver's CSR — all of Graph500's, none of TrillionG's, which
	// sorts each scope where it was drawn.
	Shuffled int64
}

// Fig14Result compares TrillionG (NSKG, CSR6) against the Graph500
// benchmark generator on 1 GbE and InfiniBand-class networks
// (Appendix D, Figure 14).
type Fig14Result struct {
	Rows    []Fig14Row
	Cluster cluster.Config // base cluster (bandwidth varied per row)
}

// Fig14 runs the comparison.
func Fig14(scales []int, memCapBytes int64) (*Fig14Result, error) {
	if len(scales) == 0 {
		scales = []int{14, 15, 16}
	}
	if memCapBytes == 0 {
		memCapBytes = (int64(16) << uint(scales[len(scales)-1]-1)) * 2 * memacct.EdgeBytes / 10
	}
	base := cluster.Config{Machines: 10, ThreadsPerMachine: 6, LatencySec: 0.0001}
	res := &Fig14Result{Cluster: base}
	networks := []struct {
		name string
		bw   float64
	}{
		{"1G", cluster.OneGbE},
		{"IB", cluster.InfiniBandEDR},
	}
	for _, sc := range scales {
		for _, net := range networks {
			cc := base
			cc.BandwidthBytesPerSec = net.bw

			// Graph500: in-memory NSKG + scramble + shuffle + CSR build.
			g5 := graph500.Config{
				Seed: skg.Graph500Seed, Levels: sc, NumEdges: int64(16) << uint(sc),
				NoiseParam: 0.1, Cluster: cc, MemLimitBytes: memCapBytes,
			}
			g5res, err := graph500.Run(g5, 701, nil)
			row := Fig14Row{Method: "Graph500", Network: net.name, Scale: sc}
			if errors.Is(err, graph500.ErrOutOfMemory) {
				row.OOM = true
			} else if err != nil {
				return nil, fmt.Errorf("fig14 graph500 scale %d: %w", sc, err)
			} else {
				row.Elapsed = g5res.Sim.Elapsed()
				row.NetworkTime = g5res.Sim.NetworkTime()
				row.ConstructionRatio = g5res.ConstructionRatio()
				row.Shuffled = g5res.Edges
			}
			res.Rows = append(res.Rows, row)

			// TrillionG: NSKG to CSR6, no shuffle; the only construction
			// work is sorting each scope into CSR order.
			trow, err := fig14TrillionG(sc, cc)
			if err != nil {
				return nil, fmt.Errorf("fig14 trilliong scale %d: %w", sc, err)
			}
			trow.Network = net.name
			res.Rows = append(res.Rows, trow)
		}
	}
	return res, nil
}

// fig14TrillionG runs TrillionG (NSKG, CSR6) on the simulated cluster,
// separating generation from CSR construction so the construction
// ratio is measurable.
func fig14TrillionG(scale int, cc cluster.Config) (Fig14Row, error) {
	sim, err := cluster.New(cc)
	if err != nil {
		return Fig14Row{}, err
	}
	cfg := core.DefaultConfig(scale)
	cfg.MasterSeed = 702
	cfg.NoiseParam = 0.1
	cfg.Workers = cc.Workers()
	g, err := core.NewScopeGenerator(cfg, nil)
	if err != nil {
		return Fig14Row{}, err
	}
	ranges, err := core.Plan(cfg, cfg.Workers)
	if err != nil {
		return Fig14Row{}, err
	}
	scopes := make([][][]int64, len(ranges))
	srcs := make([][]int64, len(ranges))
	err = sim.RunPhase("generate", func(w cluster.Worker) error {
		for u := ranges[w.Index].Lo; u < ranges[w.Index].Hi; u++ {
			src := rng.NewScoped(cfg.MasterSeed, uint64(u))
			sc := g.Scope(u, src, nil)
			if len(sc.Dsts) == 0 {
				continue
			}
			scopes[w.Index] = append(scopes[w.Index], sc.Dsts)
			srcs[w.Index] = append(srcs[w.Index], u)
		}
		return nil
	})
	if err != nil {
		return Fig14Row{}, err
	}
	// Construction: sort each adjacency list (CSR6's only extra work;
	// scopes are already ordered by source within a worker).
	err = sim.RunPhase("construct", func(w cluster.Worker) error {
		wr := gformat.NewDiscardWriter(gformat.CSR6)
		for i, adj := range scopes[w.Index] {
			sort.Slice(adj, func(a, b int) bool { return adj[a] < adj[b] })
			if err := wr.WriteScope(srcs[w.Index][i], adj); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Fig14Row{}, err
	}
	total := sim.Elapsed()
	ratio := 0.0
	if total > 0 {
		ratio = float64(sim.PhaseTime("construct")+sim.NetworkTime()) / float64(total)
	}
	return Fig14Row{
		Method: "TrillionG", Scale: scale, Elapsed: total,
		NetworkTime: sim.NetworkTime(), ConstructionRatio: ratio,
	}, nil
}

// Row returns a cell (ok false if missing or OOM).
func (r *Fig14Result) Row(method, network string, scale int) (Fig14Row, bool) {
	for _, row := range r.Rows {
		if row.Method == method && row.Network == network && row.Scale == scale && !row.OOM {
			return row, true
		}
	}
	return Fig14Row{}, false
}

// Report renders the comparison.
func (r *Fig14Result) Report() Report {
	rep := Report{
		Title:   "Figure 14 — TrillionG vs Graph500 (1 GbE vs InfiniBand)",
		Columns: []string{"method", "network", "scale", "sim time", "construction %", "edges shuffled"},
		Notes: []string{
			"TrillionG ships no edges, so its time is network-independent; Graph500 collapses without InfiniBand.",
			"Construction % = (shuffle + CSR build) / total — the Figure 14b ratio (paper: >90% for Graph500, 6-7% for TrillionG), as measured here.",
		},
	}
	for _, row := range r.Rows {
		t := fmtDur(row.Elapsed)
		c, n := fmt.Sprintf("%.1f%%", 100*row.ConstructionRatio), fmt.Sprint(row.Shuffled)
		if row.OOM {
			t, c, n = "O.O.M.", "-", "-"
		}
		rep.Rows = append(rep.Rows, []string{
			row.Method, row.Network, fmt.Sprintf("%d", row.Scale), t, c, n,
		})
	}
	return rep
}
