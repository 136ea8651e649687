package experiments

import (
	"fmt"

	"repro/internal/gmark"
	"repro/internal/stats"
)

// Fig10Result holds the rich-graph degree plots of Figure 10: the
// bibliographical schema's author predicate with Zipfian out-degrees
// and Gaussian in-degrees.
type Fig10Result struct {
	NumVertices, NumEdges int64
	// OutHist and InHist are the author-predicate degree histograms.
	OutHist, InHist stats.Hist
	// OutSkewness should be large (heavy tail); InSkewness near zero.
	OutSkewness, InSkewness float64
	// InKSNormal is the in-degree KS distance to the fitted normal.
	InKSNormal float64
	// InMean and InWantMean compare the Gaussian mean to |E_pred|/|V_dst|.
	InMean, InWantMean float64
	// PredicateCounts records edges per predicate; Predicates lists
	// them in schema order.
	PredicateCounts map[string]int64
	Predicates      []string
}

// Fig10 generates the bibliographical graph (defaults: 2^16 vertices,
// 2^20 edges) and analyzes the author predicate.
func Fig10(numVertices, numEdges int64) (*Fig10Result, error) {
	if numVertices == 0 {
		numVertices = 1 << 16
	}
	if numEdges == 0 {
		numEdges = 1 << 20
	}
	schema := gmark.Bibliography(numVertices, numEdges)
	counter := stats.NewDegreeCounter()
	counts, err := schema.Generate(11, func(pred string, src int64, dsts []int64) error {
		if pred == "author" {
			counter.AddScope(src, dsts)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
	res := &Fig10Result{
		NumVertices:     numVertices,
		NumEdges:        numEdges,
		OutHist:         counter.OutHist(),
		InHist:          counter.InHist(),
		OutSkewness:     stats.Skewness(counter.OutDegrees()),
		InSkewness:      stats.Skewness(counter.InDegrees()),
		InKSNormal:      stats.KSAgainstNormal(counter.InDegrees()),
		PredicateCounts: counts,
		Predicates:      schema.Predicates(),
	}
	res.InMean, _ = stats.MeanStd(counter.InDegrees())
	var papers int64
	for _, r := range schema.Ranges() {
		if r.Type == "paper" {
			papers = r.Hi - r.Lo
		}
	}
	res.InWantMean = float64(counts["author"]) / float64(papers)
	return res, nil
}

// Report renders the analysis.
func (r *Fig10Result) Report() Report {
	outSlope, _ := stats.PowerLawSlope(r.OutHist)
	rep := Report{
		Title: fmt.Sprintf("Figure 10 — rich graph (bibliography, |V|=%d, |E|=%d), author predicate",
			r.NumVertices, r.NumEdges),
		Columns: []string{"side", "distribution", "skewness", "KS vs normal", "power-law slope", "mean"},
		Notes: []string{
			"Out-degrees: Zipfian (large skew, power-law plot). In-degrees: Gaussian (symmetric, normal fit).",
		},
	}
	rep.Rows = append(rep.Rows, []string{
		"out", "zipfian", fmtF(r.OutSkewness), "-", fmtF(outSlope), "-",
	})
	rep.Rows = append(rep.Rows, []string{
		"in", "gaussian", fmtF(r.InSkewness), fmtF(r.InKSNormal), "-",
		fmt.Sprintf("%.2f (want %.2f)", r.InMean, r.InWantMean),
	})
	for _, pred := range r.Predicates {
		rep.Notes = append(rep.Notes, fmt.Sprintf("predicate %s: %d edges", pred, r.PredicateCounts[pred]))
	}
	return rep
}
