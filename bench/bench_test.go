package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the harness must agree with.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks names and counted work — never a wall-clock value: the set of
// emitted (metric, workload) pairs is exactly what BENCHMARK.json
// declares, names are well formed, nothing failed, and every span of
// every trace has a valid parent.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads declared, want 2..8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics declared, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}

	want := map[bool]map[string]string{false: {}, true: {}} // traced → metric → unit
	for i, m := range d.EndToEnd {
		want[false][m.Name] = m.Unit
		if got := endToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, metrics.go %+v", i, m, got)
		}
	}
	for i, m := range d.PerLayer {
		want[true][m.Name] = m.Unit
		if got := perLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, metrics.go %+v", i, m, got)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) || len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d/%d/%d end-to-end/per-layer/workloads, the harness has %d/%d/%d",
			len(d.EndToEnd), len(d.PerLayer), len(d.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}

	outdir := t.TempDir()
	for i, wl := range d.Workloads {
		if wl.Name != workloads[i].name || wl.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q, workloads.go %q", i, wl.Name, workloads[i].name)
		}
		if !name.MatchString(wl.Name) {
			t.Errorf("workload name %q is malformed", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			var stdout bytes.Buffer
			res, err := runWorkload(options{workload: wl.Name, seed: defaultSeed, seconds: 0.2, trace: traced,
				smoke: true, tmp: t.TempDir(), outdir: outdir}, &stdout)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			// The printed lines and the result line name the same metrics,
			// and both name exactly the declared ones.
			printed := map[string]string{}
			sc := bufio.NewScanner(&stdout)
			for sc.Scan() {
				if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] != "#" {
					if f[1] != wl.Name {
						t.Errorf("line %q names another workload", sc.Text())
					}
					printed[f[0]] = f[3]
				}
			}
			for m, unit := range want[traced] {
				if !name.MatchString(m) {
					t.Errorf("metric name %q is malformed", m)
				}
				if printed[m] != unit || res.Metrics[m].Unit != unit {
					t.Errorf("%s on %s: declared in %q, printed in %q, result line in %q", m, wl.Name, unit, printed[m], res.Metrics[m].Unit)
				}
				if !traced && res.Metrics[m].Value <= 0 {
					t.Errorf("end-to-end %s on %s is %v; it must never be 0", m, wl.Name, res.Metrics[m].Value)
				}
			}
			if len(printed) != len(want[traced]) || len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s (traced %v): %d metrics printed, %d in the result line, %d declared",
					wl.Name, traced, len(printed), len(res.Metrics), len(want[traced]))
			}
			if line, err := resultLine(res); err != nil || !json.Valid([]byte(line)) {
				t.Errorf("%s: result line %q: %v", wl.Name, line, err)
			}
		}
		checkTrace(t, filepath.Join(outdir, "trace-"+wl.Name+".jsonl"), wl.Name)
	}
}

// checkTrace reads a trace back: ids are dense, every parent is an
// earlier span of the same workload (or 0 for a root), and no span ends
// before it starts.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	roots := 0
	for i, s := range spans {
		if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.Workload != workload || s.EndNS < s.StartNS || s.Name == "" {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		if s.Parent == 0 {
			roots++
			if s.Name != workload {
				t.Errorf("%s: root span named %q", path, s.Name)
			}
		}
	}
	if roots == 0 {
		t.Errorf("%s: no root span among %d", path, len(spans))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three: %v %v, want 1 3", q1, q3)
	}
	if got := spread([]float64{100, 100, 100}); got != 0 {
		t.Errorf("spread of equal values %v", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{workload: "w", t0: time.Unix(0, 0)}
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	root := tr.add(0, "w", at(0), at(100), 0)
	a := tr.add(root, "core.worker[0]", at(10), at(60), 0)
	tr.add(root, "core.worker[1]", at(40), at(90), 0) // overlaps a: union is 10..90
	tr.add(a, "gformat.write", at(10), at(25), 0)
	self := selfTimes(tr.spans)
	if self[root] != 20 || self[a] != 35 {
		t.Errorf("self times root %v worker %v, want 20ns 35ns", self[root], self[a])
	}
	if d, _ := sumSelf(tr.spans, self, "core.worker"); d != 35+50 {
		t.Errorf("summed worker self time %v, want 85ns", d)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(metric, kind, better string, bound float64, values ...float64) row {
		r := row{Metric: metric, Workload: "w", Kind: kind, Better: better, Bound: bound, Values: values}
		r.summarize()
		return r
	}
	a := report{Rows: []row{
		mk("edges_per_sec", "end_to_end", "higher", 0.10, 100, 100, 100),
		mk("job_p50_ms", "end_to_end", "lower", 0.10, 10, 10, 10),
		mk("peak_rss_mb", "end_to_end", "lower", 0.10, 8, 10, 14),
		mk("avs.attempts_per_edge", "per_layer", "lower", 0, 9),
	}, Header: header{Failed: map[string]int{"w": 0}, Attempted: map[string]int{"w": 5}}}
	b := report{Rows: []row{
		mk("edges_per_sec", "end_to_end", "higher", 0.10, 95, 95, 95), // 5% lower: within the bound
		mk("job_p50_ms", "end_to_end", "lower", 0.10, 12, 12, 12),     // 20% higher: worse
		mk("peak_rss_mb", "end_to_end", "lower", 0.10, 8, 10, 14),     // same, but spread over the bound
		mk("avs.attempts_per_edge", "per_layer", "lower", 0, 20),      // no bound, no verdict
	}, Header: header{Failed: map[string]int{"w": 0}, Attempted: map[string]int{"w": 5}}}

	var out bytes.Buffer
	if compare(a, b, &out) {
		t.Error("a 20% worse job_p50_ms passed")
	}
	verdicts := map[string]string{}
	for _, l := range strings.Split(out.String(), "\n")[1:] {
		if f := strings.Fields(l); len(f) > 0 {
			verdicts[f[0]] = f[len(f)-1]
		}
	}
	want := map[string]string{"edges_per_sec": "ok", "job_p50_ms": "worse", "peak_rss_mb": "unresolved", "avs.attempts_per_edge": "-"}
	for m, v := range want {
		if verdicts[m] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", m, verdicts[m], v, out.String())
		}
	}

	b.Rows[1] = a.Rows[1]
	if out.Reset(); !compare(a, b, &out) {
		t.Errorf("nothing worse, yet compare failed:\n%s", out.String())
	}
	b.Header.Failed["w"] = 1
	if out.Reset(); compare(a, b, &out) {
		t.Error("a rise in failed operations passed")
	}
	if math.Abs(spread(a.Rows[2].Values)-0.6) > 1e-9 { // quartiles 8 and 14 around a median of 10
		t.Errorf("spread %v, want 0.6", spread(a.Rows[2].Values))
	}
}
