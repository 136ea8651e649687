// Command gstat analyzes generated graph files: degree distributions,
// power-law and Zipf slopes, and the oscillation metric.
//
// Usage:
//
//	gstat -format adj6 out/part-*.adj6
//	gstat -format tsv -plot out.tsv       # also dump degree/count pairs
//	gstat -format adj6 -json out/part-*.adj6 | jq .out_power_law.slope
//	gstat -format adj6 -json -expect-scale 13 -expect-noise 0.1 out/part-*.adj6
//
// With -expect-scale the observed statistics are additionally compared
// against the closed-form expectations of the named generation
// parameters (internal/validate): text output appends the check table,
// -json output gains a "validate" field carrying the full
// trilliong-validate report. The comparison always uses file-axis
// orientation ("out" = the scope axis as written), so it is unaffected
// by -inadj.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/stats"
	"repro/internal/validate"
)

// slopeFit is a fitted (slope, r²) pair in the JSON report; it is
// omitted entirely when the fit is undefined (NaN).
type slopeFit struct {
	Slope float64 `json:"slope"`
	R2    float64 `json:"r2"`
}

// jsonReport is gstat's -json output. Floats are rounded to 4 decimals
// so the report is byte-stable across runs: the slope fits sum floats
// in map-iteration order, which perturbs the last bits from run to run.
type jsonReport struct {
	Edges          int64     `json:"edges"`
	OutVertices    int64     `json:"out_vertices"`
	InVertices     int64     `json:"in_vertices"`
	MaxOutDegree   int64     `json:"max_out_degree"`
	MaxInDegree    int64     `json:"max_in_degree"`
	OutPowerLaw    *slopeFit `json:"out_power_law,omitempty"`
	InPowerLaw     *slopeFit `json:"in_power_law,omitempty"`
	OutZipf        *slopeFit `json:"out_zipf,omitempty"`
	OutOscillation float64   `json:"out_oscillation"`
	InOscillation  float64   `json:"in_oscillation"`
	// Validate is the expected-vs-observed section (-expect-scale): the
	// same report trilliong-validate emits, sharing its schema.
	Validate *validate.Report `json:"validate,omitempty"`
}

// jsonCompare is the -json shape of a -compare run.
type jsonCompare struct {
	KSOut float64 `json:"ks_out_degree"`
	KSIn  float64 `json:"ks_in_degree"`
}

// round4 rounds to 4 decimals, the precision of the text output.
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// fit wraps a (slope, r²) pair, nil when the slope is NaN.
func fit(slope, r2 float64) *slopeFit {
	if math.IsNaN(slope) {
		return nil
	}
	return &slopeFit{Slope: round4(slope), R2: round4(r2)}
}

// buildReport assembles the -json document from the counted degrees.
func buildReport(edges int64, out, in stats.Hist, outDegrees []int64) jsonReport {
	r := jsonReport{
		Edges:          edges,
		OutVertices:    out.Vertices(),
		InVertices:     in.Vertices(),
		MaxOutDegree:   out.MaxDegree(),
		MaxInDegree:    in.MaxDegree(),
		OutOscillation: round4(stats.Oscillation(out)),
		InOscillation:  round4(stats.Oscillation(in)),
	}
	r.OutPowerLaw = fit(stats.PowerLawSlope(out))
	r.InPowerLaw = fit(stats.PowerLawSlope(in))
	r.OutZipf = fit(stats.ZipfSlope(outDegrees))
	return r
}

// expectReport evaluates acc — the input files' scopes, counted in
// the same pass as gstat's own statistics — against the closed-form
// expectations of cfg (internal/validate). The report's "out" axis is
// the scope axis as written in the files, matching the model's
// convention.
func expectReport(acc *validate.Accumulator, cfg core.Config) (*validate.Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := validate.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	rep := validate.Evaluate(m, acc, validate.DefaultThresholds(), nil, "gstat")
	rep.Params = validate.ParamsFromConfig(cfg)
	return rep, nil
}

// emitJSON prints v as indented JSON on stdout.
func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

var (
	format   = flag.String("format", "adj6", "input format: tsv, adj6 or csr6")
	plot     = flag.Bool("plot", false, "print out-degree plot points (degree<TAB>count)")
	inadj    = flag.Bool("inadj", false, "input stores in-adjacency lists (AVS-I output): swap in/out")
	compare  = flag.String("compare", "", "second graph (same format): print KS distances instead of stats")
	jsonFlag = flag.Bool("json", false, "emit the report as JSON instead of text")
	expect   = cliflags.GraphFlags(flag.CommandLine, "expect-", "master", 0)
)

func main() {
	flag.Lookup("expect-scale").Usage = "compare against the closed-form expectations of this log2 vertex count and the other -expect-* flags (0 = off)"
	flag.Parse()
	if flag.NArg() == 0 {
		fatal(fmt.Errorf("no input files"))
	}
	f, err := gformat.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}
	var cfg core.Config
	counter := stats.NewDegreeCounter()
	sinks := []scopeAdder{counter}
	var acc *validate.Accumulator // the -expect-scale side of the one pass
	if expect.Scale() > 0 && *compare == "" {
		if cfg, err = expect.Config(); err != nil {
			fatal(err)
		}
		acc = validate.NewAccumulator()
		sinks = append(sinks, acc)
	}
	edges, err := ingestAll(flag.Args(), f, sinks...)
	if err != nil {
		fatal(err)
	}
	out, in := counter.OutHist(), counter.InHist()
	if *inadj {
		// AVS-I part files store (destination, in-neighbours): what the
		// reader counted as "out" is really "in" and vice versa.
		out, in = in, out
	}
	if *compare != "" {
		other := stats.NewDegreeCounter()
		if _, err := ingestAll([]string{*compare}, f, other); err != nil {
			fatal(err)
		}
		oo, oi := other.OutHist(), other.InHist()
		if *inadj {
			oo, oi = oi, oo
		}
		if *jsonFlag {
			emitJSON(jsonCompare{KSOut: round4(stats.KS(out, oo)), KSIn: round4(stats.KS(in, oi))})
			return
		}
		fmt.Printf("KS out-degree          %.4f\n", stats.KS(out, oo))
		fmt.Printf("KS in-degree           %.4f\n", stats.KS(in, oi))
		fmt.Println("(0 = identical distributions; > ~0.1 = clearly different)")
		return
	}
	var expectRep *validate.Report
	if acc != nil {
		if expectRep, err = expectReport(acc, cfg); err != nil {
			fatal(err)
		}
	}
	if *jsonFlag {
		r := buildReport(edges, out, in, counter.OutDegrees())
		r.Validate = expectRep
		emitJSON(r)
		return
	}
	fmt.Printf("edges                  %d\n", edges)
	fmt.Printf("vertices w/ out-edges  %d\n", out.Vertices())
	fmt.Printf("vertices w/ in-edges   %d\n", in.Vertices())
	fmt.Printf("max out / in degree    %d / %d\n", out.MaxDegree(), in.MaxDegree())
	if s, r2 := stats.PowerLawSlope(out); s == s { // NaN check
		fmt.Printf("out power-law slope    %.3f (r2 %.3f)\n", s, r2)
	}
	if s, r2 := stats.PowerLawSlope(in); s == s {
		fmt.Printf("in power-law slope     %.3f (r2 %.3f)\n", s, r2)
	}
	if s, r2 := stats.ZipfSlope(counter.OutDegrees()); s == s {
		fmt.Printf("out zipf (rank-freq)   %.3f (r2 %.3f)\n", s, r2)
	}
	fmt.Printf("out oscillation        %.4f\n", stats.Oscillation(out))
	fmt.Printf("in oscillation         %.4f\n", stats.Oscillation(in))
	if expectRep != nil {
		fmt.Print(expectRep.Summary())
	}
	if *plot {
		fmt.Println("# out-degree plot: degree<TAB>count")
		for _, p := range out.Points() {
			fmt.Printf("%d\t%d\n", p.Degree, p.Count)
		}
	}
}

// ingestAll is ingest over several files, in order, with the edge
// counts summed.
func ingestAll(files []string, f gformat.Format, sinks ...scopeAdder) (int64, error) {
	var edges int64
	for _, name := range files {
		n, err := ingest(name, f, sinks...)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		edges += n
	}
	return edges, nil
}

// scopeAdder counts scanned scopes: gstat's degree counter and, with
// -expect-scale, the validation accumulator.
type scopeAdder interface {
	AddScope(src int64, dsts []int64)
}

// ingest scans one file into every sink and returns its edge count.
func ingest(name string, f gformat.Format, sinks ...scopeAdder) (int64, error) {
	file, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	var edges int64
	err = gformat.Scan(file, f, func(src int64, dsts []int64) error {
		for _, s := range sinks {
			s.AddScope(src, dsts)
		}
		edges += int64(len(dsts))
		return nil
	})
	return edges, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gstat:", err)
	os.Exit(1)
}
