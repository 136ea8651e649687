package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/gmark"
	"repro/internal/skg"
	"repro/internal/stats"
)

// Table3Row is one seed→distribution verification.
type Table3Row struct {
	Label string
	// TheorySlope is Lemma 6's prediction (NaN for the Gaussian row).
	TheorySlope float64
	// MeasuredSlope is the popcount-class fit (NaN for Gaussian).
	MeasuredSlope float64
	// For the Gaussian row: mean/std of degrees and KS vs normal.
	Mean, WantMean, KSNormal float64
}

// Table3Result verifies Table 3: seed parameters map to the predicted
// Zipfian slopes (out and in) and the uniform seed yields a Gaussian
// with mean |E|/|V|.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the verification at the given scale.
func Table3(scale int) (*Table3Result, error) {
	if scale == 0 {
		scale = 13
	}
	res := &Table3Result{}
	numSrc := int64(1) << uint(scale)
	numEdges := 16 * numSrc
	gaussian := gmark.DistSpec{Kind: "gaussian"}

	// Out-degree Zipfian rows for three slopes, including the Graph500
	// constant −1.662 the paper calls out.
	for _, slope := range []float64{-1.0, -1.662, -2.5} {
		classSum := make([]float64, scale+1)
		classN := make([]float64, scale+1)
		err := table3Draw(numSrc, numEdges, gmark.DistSpec{Kind: "zipfian", Slope: slope}, gaussian, 3, func(src int64, dsts []int64) {
			ones := bits.OnesCount64(uint64(src))
			classSum[ones] += float64(len(dsts))
			classN[ones]++
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{
			Label:       fmt.Sprintf("Kout zipfian slope %.3f", slope),
			TheorySlope: slope, MeasuredSlope: classSlope(classSum, classN),
			Mean: math.NaN(), WantMean: math.NaN(), KSNormal: math.NaN(),
		})
	}

	// In-degree Zipfian row: measure the popcount-class means of the
	// *destination* IDs.
	inSlope := -1.4
	counter := stats.NewDegreeCounter()
	if err := table3Draw(numSrc, numEdges, gaussian, gmark.DistSpec{Kind: "zipfian", Slope: inSlope}, 5, counter.AddScope); err != nil {
		return nil, err
	}
	classSum := make([]float64, scale+1)
	classN := make([]float64, scale+1)
	for v, d := range counter.InByVertex() {
		classSum[bits.OnesCount64(uint64(v))] += float64(d)
	}
	// Include zero-in-degree vertices of each class in the mean.
	for k := 0; k <= scale; k++ {
		classN[k] = float64(choose(scale, k))
	}
	res.Rows = append(res.Rows, Table3Row{
		Label:       fmt.Sprintf("Kin zipfian slope %.3f", inSlope),
		TheorySlope: inSlope, MeasuredSlope: classSlope(classSum, classN),
		Mean: math.NaN(), WantMean: math.NaN(), KSNormal: math.NaN(),
	})

	// Gaussian row: uniform seed, mean |E|/|V|.
	var degs []int64
	if err := table3Draw(numSrc, numEdges, gaussian, gaussian, 7, func(_ int64, dsts []int64) {
		degs = append(degs, int64(len(dsts)))
	}); err != nil {
		return nil, err
	}
	mean, _ := stats.MeanStd(degs)
	res.Rows = append(res.Rows, Table3Row{
		Label:       "K uniform → Gaussian",
		TheorySlope: math.NaN(), MeasuredSlope: math.NaN(),
		Mean: mean, WantMean: float64(numEdges) / float64(numSrc),
		KSNormal: stats.KSAgainstNormal(degs),
	})
	return res, nil
}

// table3Draw draws one ERV collection over numSrc×numSrc through
// gmark.Schema.Generate: a schema of one node type and one predicate
// with the given out- and in-distributions. emit sees every non-empty
// scope.
func table3Draw(numSrc, numEdges int64, out, in gmark.DistSpec, masterSeed uint64, emit func(src int64, dsts []int64)) error {
	s := &gmark.Schema{
		Name: "table3", NumVertices: numSrc, NumEdges: numEdges,
		NodeTypes: []gmark.NodeType{{Name: "v", Ratio: 1}},
		EdgeTypes: []gmark.EdgeType{{Predicate: "e", SrcType: "v", DstType: "v", Ratio: 1, OutDist: out, InDist: in}},
	}
	_, err := s.Generate(masterSeed, func(_ string, src int64, dsts []int64) error {
		emit(src, dsts)
		return nil
	})
	return err
}

// classSlope fits log2 of the mean degree per popcount class against
// the class, over classes of at least 8 vertices and mean at least 2.
func classSlope(sum, n []float64) float64 {
	var xs, ys []float64
	for k := range sum {
		if n[k] >= 8 && sum[k]/n[k] >= 2 {
			xs = append(xs, float64(k))
			ys = append(ys, math.Log2(sum[k]/n[k]))
		}
	}
	slope, _, _ := stats.LinearFit(xs, ys)
	return slope
}

func choose(n, k int) int64 {
	r := int64(1)
	for i := 0; i < k; i++ {
		r = r * int64(n-i) / int64(i+1)
	}
	return r
}

// Report renders the table.
func (r *Table3Result) Report() Report {
	rep := Report{
		Title:   "Table 3 — seed parameters vs resulting degree distributions",
		Columns: []string{"configuration", "theory slope", "measured slope", "mean", "want mean", "KS vs normal"},
		Notes: []string{
			fmt.Sprintf("Graph500 seed constant: slope log2(γ+δ)−log2(α+β) = %.3f (paper: −1.662).", skg.Graph500Seed.OutZipfSlope()),
		},
	}
	nan := func(v float64, f string) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf(f, v)
	}
	for _, row := range r.Rows {
		rep.Rows = append(rep.Rows, []string{
			row.Label,
			nan(row.TheorySlope, "%.3f"), nan(row.MeasuredSlope, "%.3f"),
			nan(row.Mean, "%.2f"), nan(row.WantMean, "%.2f"), nan(row.KSNormal, "%.4f"),
		})
	}
	return rep
}
