package experiments

import (
	"fmt"
	"time"

	"repro/internal/avs"
	"repro/internal/core"
	"repro/internal/rng"
)

// Fig13Row is one ablation cell, or (Production) the generator's own
// scope loop timed over the same scopes.
type Fig13Row struct {
	Idea1, Idea2, Idea3 bool
	// Production marks the row that times avs.Generator.Scope — the
	// lane-batched descent that ships bytes — instead of the ablation
	// loop. Its work columns are not counted.
	Production bool
	// Scopes counts the non-empty scopes; Edges and Attempts are the
	// graph's totals.
	Scopes, Edges, Attempts int64
	// Builds, Uniforms and Steps are the counted work of the cell:
	// vector builds, uniforms drawn for destinations, and recursion steps.
	Builds, Uniforms, Steps int64
	Elapsed                 time.Duration
}

// Fig13Result is the key-idea ablation of Figure 13: all 2³
// combinations of (Idea#1 reuse RecVec, Idea#2 sparse recursion,
// Idea#3 single random value) at one scale, plus the production row.
type Fig13Result struct {
	Scale int
	Rows  []Fig13Row
}

// Fig13 runs the ablation (paper: Scale 27; default here Scale 18),
// single-threaded so cell times are comparable: every cell draws every
// scope of the default configuration at master seed 601 through the
// ablation loop, and the production row through the generator.
func Fig13(scale int) (*Fig13Result, error) {
	if scale == 0 {
		scale = 18
	}
	cfg := core.DefaultConfig(scale)
	cfg.MasterSeed = 601
	g, err := core.NewScopeGenerator(cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("fig13: %w", err)
	}
	res := &Fig13Result{Scale: scale}
	for _, i1 := range []bool{false, true} {
		for _, i2 := range []bool{false, true} {
			for _, i3 := range []bool{false, true} {
				v := variant{reuse: i1, sparse: i2, single: i3, search: binary}
				if i1 && i2 && i3 {
					v.search = scan
				}
				res.Rows = append(res.Rows, v.ablate(g, cfg.MasterSeed))
			}
		}
	}
	res.Rows = append(res.Rows, production(g, cfg.MasterSeed))
	return res, nil
}

// production draws every scope as the part executor does, through
// g.Scope.
func production(g *avs.Generator, masterSeed uint64) Fig13Row {
	row := Fig13Row{Idea1: true, Idea2: true, Idea3: true, Production: true}
	var (
		src rng.Source
		buf []int64
		nv  = g.Config().NumVertices()
	)
	start := time.Now()
	for u := int64(0); u < nv; u++ {
		src.Reseed(masterSeed, uint64(u))
		res := g.Scope(u, &src, buf)
		buf = res.Dsts
		row.Edges += int64(len(res.Dsts))
		row.Attempts += res.Attempts
	}
	row.Elapsed = time.Since(start)
	return row
}

// Cell returns the ablation row of one combination.
func (r *Fig13Result) Cell(i1, i2, i3 bool) (Fig13Row, bool) {
	for _, row := range r.Rows {
		if !row.Production && row.Idea1 == i1 && row.Idea2 == i2 && row.Idea3 == i3 {
			return row, true
		}
	}
	return Fig13Row{}, false
}

// Time returns the cell time of one combination.
func (r *Fig13Result) Time(i1, i2, i3 bool) time.Duration {
	row, _ := r.Cell(i1, i2, i3)
	return row.Elapsed
}

// Report renders the ablation in the paper's bar order (Idea#1 off
// block first, X/O flags per idea), then the production row.
func (r *Fig13Result) Report() Report {
	rep := Report{
		Title: fmt.Sprintf("Figure 13 — breakdown of the three key ideas (Scale %d, 1 thread)", r.Scale),
		Columns: []string{"loop", "Idea#1 reuse", "Idea#2 sparse", "Idea#3 1-rand", "time", "speedup vs none",
			"builds/edge", "uniforms/edge", "steps/edge"},
		Notes: []string{
			"Idea#1 dominates; Ideas #2 and #3 compound once the vector is reused (paper: 3.38x then 2.47x).",
			"Every ablation row draws the same scopes from the same streams; the production row is the generator's batched descent.",
		},
	}
	base := r.Time(false, false, false)
	flag := func(b bool) string {
		if b {
			return "O"
		}
		return "X"
	}
	for _, row := range r.Rows {
		loop, sp := "ablation", "-"
		if row.Production {
			loop = "production"
		}
		if base > 0 && row.Elapsed > 0 {
			sp = fmt.Sprintf("%.2fx", float64(base)/float64(row.Elapsed))
		}
		perEdge := func(n int64) string {
			if n == 0 || row.Edges == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f", float64(n)/float64(row.Edges))
		}
		rep.Rows = append(rep.Rows, []string{
			loop, flag(row.Idea1), flag(row.Idea2), flag(row.Idea3), fmtDur(row.Elapsed), sp,
			perEdge(row.Builds), perEdge(row.Uniforms), perEdge(row.Steps),
		})
	}
	return rep
}
