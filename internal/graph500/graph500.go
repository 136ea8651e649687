// Package graph500 implements a Graph500-reference-style generator, the
// Appendix D comparison target: noisy-SKG (NSKG, N = 0.1) edge-list
// generation with scrambled vertex IDs, an all-to-all shuffle that
// routes each edge to the machine owning its (scrambled) source, and an
// in-memory CSR-like construction on every machine.
//
// Its two defining differences from TrillionG drive Figure 14:
//
//   - it is an in-memory framework: each machine must hold its share of
//     the full edge list plus the CSR image, so it runs out of memory at
//     scales TrillionG streams to disk;
//   - generation is cheap but *construction* (shuffle + sort into CSR)
//     dominates, so its total time collapses only on a fast network —
//     the paper measured >90% construction overhead at Scale 29 even on
//     100 Gb InfiniBand.
package graph500

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/rng"
	"repro/internal/skg"
)

// Config parameterizes a run.
type Config struct {
	Seed     skg.Seed
	Levels   int
	NumEdges int64
	// NoiseParam is the NSKG noise (Graph500 reference uses 0.1).
	NoiseParam float64
	// Cluster describes the simulated cluster.
	Cluster cluster.Config
	// MemLimitBytes caps each machine's tracked memory (edge inbox +
	// CSR image); exceeding it returns ErrOutOfMemory.
	MemLimitBytes int64
}

// ErrOutOfMemory reports a machine exceeding its memory cap.
var ErrOutOfMemory = fmt.Errorf("graph500: machine memory limit exceeded")

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Seed.Validate(); err != nil {
		return err
	}
	if c.Levels < 1 || c.Levels > 47 {
		return fmt.Errorf("graph500: levels %d outside [1, 47]", c.Levels)
	}
	if c.NumEdges < 1 {
		return fmt.Errorf("graph500: NumEdges %d < 1", c.NumEdges)
	}
	if c.NoiseParam < 0 || c.NoiseParam > skg.MaxNoise(c.Seed) {
		return fmt.Errorf("graph500: noise %v outside [0, %v]", c.NoiseParam, skg.MaxNoise(c.Seed))
	}
	return c.Cluster.Validate()
}

// Scramble applies the benchmark's vertex relabeling: a bijection on
// [0, 2^levels) built from odd-multiplication and xor-shift rounds,
// keyed by seed. Scrambling destroys the correlation between vertex ID
// bit patterns and degree, which is how Graph500 avoids the ownership
// skew that cripples RMAT/p.
func Scramble(x int64, levels int, seed uint64) int64 {
	mask := uint64(1)<<uint(levels) - 1
	v := uint64(x) & mask
	k1 := (rng.Mix64(seed, 1) | 1) & mask // odd multiplier
	k2 := rng.Mix64(seed, 2) & mask
	for round := 0; round < 3; round++ {
		v = (v * k1) & mask
		v ^= k2
		v = ((v >> uint((levels+1)/2)) | (v << uint(levels-(levels+1)/2))) & mask
	}
	return int64(v)
}

// Result summarizes a run.
type Result struct {
	// Edges is the number of edge-list entries generated (duplicates
	// are NOT eliminated — the benchmark's edge list keeps them).
	Edges int64
	// DistinctEdges counts distinct entries after CSR construction
	// (adjacent duplicates collapse during the sort).
	DistinctEdges int64
	// Sim carries timing; construction overhead is PhaseTime("shuffle")
	// + PhaseTime("construct") over Elapsed.
	Sim *cluster.Sim
	// PeakMachineBytes is the largest tracked per-machine working set.
	PeakMachineBytes int64
	// OwnedEdges is the number of edge-list entries the shuffle routed to
	// each worker (its inbox) — the counted-work view of ownership
	// balance, independent of how long any task took.
	OwnedEdges []int64
}

// ConstructionRatio returns the fraction of simulated time spent in
// shuffle + CSR construction (the Figure 14b metric).
func (r Result) ConstructionRatio() float64 {
	total := r.Sim.Elapsed()
	if total == 0 {
		return 0
	}
	c := r.Sim.PhaseTime("shuffle") + r.Sim.PhaseTime("construct")
	return float64(c) / float64(total)
}

// generateEdge draws one NSKG edge: a quadrant selection per level with
// that level's noisy seed matrix.
func generateEdge(ns *skg.Noise, levels int, src *rng.Source) gformat.Edge {
	var u, v int64
	for i := 0; i < levels; i++ {
		k := ns.Level(i)
		x := src.Float64()
		var sb, db int64
		switch {
		case x < k.A:
		case x < k.A+k.B:
			db = 1
		case x < k.A+k.B+k.C:
			sb = 1
		default:
			sb, db = 1, 1
		}
		u = u<<1 | sb
		v = v<<1 | db
	}
	return gformat.Edge{Src: u, Dst: v}
}

// Run executes the benchmark generator. emitCSR, when non-nil, receives
// each machine's CSR image as (source, sorted adjacency) pairs.
func Run(cfg Config, masterSeed uint64, emitCSR func(src int64, dsts []int64) error) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	sim, err := cluster.New(cfg.Cluster)
	if err != nil {
		return Result{}, err
	}
	res := Result{Sim: sim}
	workers := cfg.Cluster.Workers()
	machines := cfg.Cluster.Machines
	threads := cfg.Cluster.ThreadsPerMachine
	perWorker := cfg.NumEdges / int64(workers)

	noiseSrc := rng.New(rng.Mix64(masterSeed, 0xBE5))
	ns, err := skg.NewNoise(cfg.Seed, cfg.Levels, cfg.NoiseParam, noiseSrc)
	if err != nil {
		return Result{}, err
	}

	machineBytes := make([]int64, machines)
	charge := func(m int, b int64) error {
		machineBytes[m] += b
		if machineBytes[m] > res.PeakMachineBytes {
			res.PeakMachineBytes = machineBytes[m]
		}
		if cfg.MemLimitBytes > 0 && machineBytes[m] > cfg.MemLimitBytes {
			return ErrOutOfMemory
		}
		return nil
	}

	// Generation: each worker produces its slice of the edge list with
	// scrambled endpoints. No duplicate elimination.
	local := make([][]gformat.Edge, workers)
	err = sim.RunPhase("generate", func(w cluster.Worker) error {
		src := rng.NewScoped(masterSeed, uint64(w.Index))
		buf := make([]gformat.Edge, 0, perWorker)
		for i := int64(0); i < perWorker; i++ {
			e := generateEdge(ns, cfg.Levels, src)
			e.Src = Scramble(e.Src, cfg.Levels, masterSeed)
			e.Dst = Scramble(e.Dst, cfg.Levels, masterSeed)
			buf = append(buf, e)
		}
		local[w.Index] = buf
		res.Edges += int64(len(buf))
		return charge(w.Machine, int64(len(buf))*memacct.EdgeBytes)
	})
	if err != nil {
		return res, err
	}

	// Shuffle: all-to-all by scrambled source ownership (contiguous
	// ranges of the scrambled space → balanced by construction).
	nv := int64(1) << uint(cfg.Levels)
	ownerOf := func(v int64) int {
		o := int(v * int64(workers) / nv)
		if o >= workers {
			o = workers - 1
		}
		return o
	}
	traffic := make([][]int64, machines)
	for i := range traffic {
		traffic[i] = make([]int64, machines)
	}
	inbox := make([][]gformat.Edge, workers)
	for wi, buf := range local {
		fromMachine := wi / threads
		for _, e := range buf {
			o := ownerOf(e.Src)
			traffic[fromMachine][o/threads] += 12
			inbox[o] = append(inbox[o], e)
			if err := charge(o/threads, memacct.EdgeBytes); err != nil {
				return res, err
			}
		}
		machineBytes[fromMachine] -= int64(len(buf)) * memacct.EdgeBytes
		local[wi] = nil
	}
	if err := sim.AddTransfer("shuffle", traffic); err != nil {
		return res, err
	}
	res.OwnedEdges = make([]int64, workers)
	for o, buf := range inbox {
		res.OwnedEdges[o] = int64(len(buf))
	}

	// Construction: per worker, sort the inbox into a CSR image. The
	// CSR arrays are charged on top of the inbox (both live at once).
	err = sim.RunPhase("construct", func(w cluster.Worker) error {
		buf := inbox[w.Index]
		if err := charge(w.Machine, int64(len(buf))*memacct.EdgeBytes); err != nil {
			return err
		}
		sort.Slice(buf, func(i, j int) bool {
			if buf[i].Src != buf[j].Src {
				return buf[i].Src < buf[j].Src
			}
			return buf[i].Dst < buf[j].Dst
		})
		var adj []int64
		flush := func(src int64) error {
			if len(adj) == 0 {
				return nil
			}
			res.DistinctEdges += int64(len(adj))
			if emitCSR != nil {
				if err := emitCSR(src, adj); err != nil {
					return err
				}
			}
			adj = adj[:0]
			return nil
		}
		var curSrc, lastDst int64 = -1, -1
		for _, e := range buf {
			if e.Src != curSrc {
				if err := flush(curSrc); err != nil {
					return err
				}
				curSrc, lastDst = e.Src, -1
			}
			if e.Dst == lastDst {
				continue // adjacent duplicates collapse in CSR
			}
			lastDst = e.Dst
			adj = append(adj, e.Dst)
		}
		if err := flush(curSrc); err != nil {
			return err
		}
		machineBytes[w.Machine] -= 2 * int64(len(buf)) * memacct.EdgeBytes
		inbox[w.Index] = nil
		return nil
	})
	return res, err
}
