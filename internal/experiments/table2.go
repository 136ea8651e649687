package experiments

import (
	"fmt"
	"time"

	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// Table2Row is one (structure, search) measurement.
type Table2Row struct {
	Structure string
	Search    string
	Scale     int
	NsPerEdge float64
	Bytes     int64 // data-structure footprint
}

// Table2Result compares destination determination on the naive CDF
// vector (linear and binary search, O(|V|) space) against the recursive
// vector (binary and linear search, O(log|V|) space) — the paper's
// Table 2 plus the space column that motivates it.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 measures ns/edge at the given scales (CDF rows capped at
// scale 20: the structure is O(|V|)).
func Table2(scales []int, drawsPerCell int) (*Table2Result, error) {
	if len(scales) == 0 {
		scales = []int{16, 20, 30}
	}
	if drawsPerCell <= 0 {
		drawsPerCell = 200000
	}
	res := &Table2Result{}
	seed := skg.Graph500Seed
	const u = 123457

	for _, sc := range scales {
		if sc <= 20 {
			cdf := recvec.NewCDF(seed, u%(1<<uint(sc)), sc)
			for _, search := range []string{"linear", "binary"} {
				src := rng.New(9)
				// Linear on big vectors is O(|V|): cut the draw count to
				// keep the harness usable, scaling the answer per draw.
				draws := drawsPerCell
				if search == "linear" {
					draws = drawsPerCell / 64
					if draws < 1000 {
						draws = 1000
					}
				}
				start := time.Now()
				var sink int64
				for i := 0; i < draws; i++ {
					x := src.UniformTo(cdf.Total())
					if search == "linear" {
						sink += cdf.DetermineLinear(x)
					} else {
						sink += cdf.DetermineBinary(x)
					}
				}
				el := time.Since(start)
				_ = sink
				res.Rows = append(res.Rows, Table2Row{
					Structure: "CDF vector", Search: search, Scale: sc,
					NsPerEdge: float64(el.Nanoseconds()) / float64(draws),
					Bytes:     int64(8) << uint(sc),
				})
			}
		} else {
			res.Rows = append(res.Rows,
				Table2Row{Structure: "CDF vector", Search: "linear", Scale: sc, Bytes: -1},
				Table2Row{Structure: "CDF vector", Search: "binary", Scale: sc, Bytes: -1},
			)
		}

		vec := recvec.New(seed, u, sc)
		for _, cell := range []struct {
			name   string
			search search
		}{{"binary", binary}, {"linear", linear}} {
			v := variant{sparse: true, single: true, search: cell.search}
			src := rng.New(9)
			var w work
			start := time.Now()
			var sink int64
			for i := 0; i < drawsPerCell; i++ {
				x := src.UniformTo(vec.RowProb())
				sink += v.descend(vec, x, nil, &w)
			}
			el := time.Since(start)
			_ = sink
			res.Rows = append(res.Rows, Table2Row{
				Structure: "RecVec", Search: cell.name, Scale: sc,
				NsPerEdge: float64(el.Nanoseconds()) / float64(drawsPerCell),
				Bytes:     int64(16 * (sc + 1)),
			})
		}
	}
	return res, nil
}

// Cell returns the ns/edge of a (structure, search, scale) cell, or -1.
func (r *Table2Result) Cell(structure, search string, scale int) float64 {
	for _, row := range r.Rows {
		if row.Structure == structure && row.Search == search && row.Scale == scale {
			return row.NsPerEdge
		}
	}
	return -1
}

// Report renders the table.
func (r *Table2Result) Report() Report {
	rep := Report{
		Title:   "Table 2 — CDF vector vs RecVec destination determination",
		Columns: []string{"structure", "search", "scale", "ns/edge", "structure size"},
		Notes: []string{
			"CDF vector is O(|V|) space — unusable past laptop scales (paper: 274 GB at |V|=2^36).",
			"RecVec is O(log|V|): 288 bytes even for a trillion-scale graph.",
		},
	}
	for _, row := range r.Rows {
		ns := "-"
		if row.NsPerEdge > 0 {
			ns = fmt.Sprintf("%.1f", row.NsPerEdge)
		}
		rep.Rows = append(rep.Rows, []string{
			row.Structure, row.Search, fmt.Sprintf("%d", row.Scale), ns, fmtBytes(row.Bytes),
		})
	}
	return rep
}
