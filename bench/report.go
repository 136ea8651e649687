package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// report is what a full run writes to -out: who measured, and per
// metric and workload the values of every run with their quartiles.
type report struct {
	Header header `json:"header"`
	Rows   []row  `json:"rows"`
}

type header struct {
	GoVersion string            `json:"go_version"`
	NProc     int               `json:"nproc"`
	W         int               `json:"w"`
	Commit    string            `json:"commit"`
	Seed      uint64            `json:"seed"`
	Runs      int               `json:"runs"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Started   time.Time         `json:"started"`
	Sizes     map[string]string `json:"sizes"`
	// Attempted and Failed count operations per workload over every
	// run, a killed or crashed child counting as one failed operation.
	Attempted map[string]int `json:"attempted"`
	Failed    map[string]int `json:"failed"`
}

// row is one metric on one workload. Values holds one number per run
// (seed, seed+1, …); a per-layer row has the one traced run's.
type row struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Kind     string    `json:"kind"` // end_to_end or per_layer
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Moves    string    `json:"moves,omitempty"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
}

func (r *row) summarize() {
	r.Median = median(r.Values)
	r.Q1, r.Q3 = quartiles(r.Values)
}

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func writeReport(path string, r report) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compare prints, per metric and workload present in both reports, the
// two medians, how much worse B is than A as a share of A's median, the
// bound, and a verdict: ok, worse (beyond the bound), or unresolved
// (within the bound, but either side's own quartile spread is wider
// than it, so the comparison cannot tell). Per-layer rows have no bound
// and no verdict. It returns false on any worse end-to-end metric or any
// rise in failed operations.
func compare(a, b report, w io.Writer) bool {
	other := map[[2]string]row{}
	for _, r := range b.Rows {
		other[[2]string{r.Metric, r.Workload}] = r
	}
	pass := true
	fmt.Fprintf(w, "%-34s %-13s %14s %14s %9s %7s  %s\n", "metric", "workload", "A median", "B median", "B worse", "bound", "verdict")
	for _, ra := range a.Rows {
		rb, ok := other[[2]string{ra.Metric, ra.Workload}]
		if !ok {
			continue
		}
		// Positive means B is worse, as a share of A's median (the base).
		worse := 0.0
		if ra.Median != 0 {
			worse = (rb.Median - ra.Median) / math.Abs(ra.Median)
			if ra.Better == "higher" {
				worse = -worse
			}
		}
		verdict, bound := "-", "-"
		if ra.Kind == "end_to_end" {
			bound = fmt.Sprintf("%.1f%%", 100*ra.Bound)
			switch {
			case worse > ra.Bound:
				verdict = "worse"
				pass = false
			case max(spread(ra.Values), spread(rb.Values)) > ra.Bound:
				verdict = "unresolved"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-34s %-13s %14.6g %14.6g %+8.2f%% %7s  %s\n", ra.Metric, ra.Workload, ra.Median, rb.Median, 100*worse, bound, verdict)
	}
	for wl, fa := range a.Header.Failed {
		if fb := b.Header.Failed[wl]; fb > fa {
			fmt.Fprintf(w, "failed operations on %s rose from %d (of %d) to %d (of %d)\n", wl, fa, a.Header.Attempted[wl], fb, b.Header.Attempted[wl])
			pass = false
		}
	}
	return pass
}

// spreadTable prints the end-to-end rows' interquartile spread as a
// share of the median beside the bound: the table README.md records.
func spreadTable(r report, w io.Writer) {
	fmt.Fprintf(w, "%-22s %-13s %14s %8s %7s %5s\n", "metric", "workload", "median", "spread", "bound", "runs")
	for _, row := range r.Rows {
		if row.Kind == "end_to_end" {
			fmt.Fprintf(w, "%-22s %-13s %14.6g %7.2f%% %6.1f%% %5d\n", row.Metric, row.Workload, row.Median, 100*spread(row.Values), 100*row.Bound, len(row.Values))
		}
	}
}
