package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options selects one run of one workload: what the driver's
// --workload/--seed/--seconds/--trace command line asks for.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes, one set-up, two repetitions: for the test
	tmp      string // where temp directories go
	outdir   string // where traces go
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line: the last line a run prints.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// threads is W, the thread budget of every workload: generator threads
// or connections in total, and GOMAXPROCS of the process.
func threads() int { return min(runtime.NumCPU(), 4) }

const minFreeBytes = 2 << 30

// runWorkload sets one workload up, measures it for about o.seconds,
// prints one "name workload value unit" line per metric to w and
// returns the result. Untraced it yields the end-to-end metrics, traced
// the per-layer ones.
func runWorkload(o options, w io.Writer) (outcome, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return outcome{}, err
	}
	W := threads()
	runtime.GOMAXPROCS(W)
	debug.SetGCPercent(100) // whatever GOGC the caller's shell exports

	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return outcome{}, err
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(o.tmp, &fs); err == nil && !o.smoke {
		if free := fs.Bavail * uint64(fs.Bsize); free < minFreeBytes {
			return outcome{}, fmt.Errorf("only %d MiB free under %s; the workloads need up to 2 GiB of temp space", free>>20, o.tmp)
		}
	}
	tmp, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(tmp)
	stop := cleanupOnSignal(tmp)
	defer stop()

	e := env{W: W, seed: o.seed, smoke: o.smoke, tmp: tmp}
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v W %d\n", wl.name, o.seed, o.seconds, o.trace, W)
	var out outcome
	var decl []metric
	if o.trace {
		out, err = runTraced(o, e, wl, w)
		decl = perLayer
	} else {
		out, err = runUntraced(o, e, wl, w)
		decl = endToEnd
	}
	if err != nil {
		return outcome{}, err
	}
	for _, m := range decl {
		v := out.Metrics[m.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return outcome{}, fmt.Errorf("%s on %s is %v", m.Name, wl.name, v.Value)
		}
		out.Metrics[m.Name] = value{v.Value, m.Unit}
		fmt.Fprintf(w, "%s %s %s %s\n", m.Name, wl.name, strconv.FormatFloat(v.Value, 'g', -1, 64), m.Unit)
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// tally is what a loop of repetitions adds up to.
type tally struct {
	reps              []repResult
	attempted, failed int
}

func (t *tally) add(r repResult, err error) {
	if err != nil {
		// A repetition that breaks is a failed operation, not a reason to
		// lose the run: it shows in the result line's failed count.
		fmt.Fprintln(os.Stderr, "bench: repetition failed:", err)
		t.attempted++
		t.failed++
		return
	}
	t.reps = append(t.reps, r)
	t.attempted += r.ops
	t.failed += r.failed
}

// busy is the time a repetition spent inside calls into the system.
func busy(r repResult) float64 {
	if r.busy > 0 {
		return r.busy.Seconds()
	}
	var d time.Duration
	for _, j := range r.jobs {
		d += j
	}
	return d.Seconds()
}

func runUntraced(o options, e env, wl workload, w io.Writer) (outcome, error) {
	// Set-up runs several times so that setup_s is a median; the last
	// instance is the one measured.
	setups, minReps, maxReps := 3, 3, math.MaxInt
	if o.smoke {
		setups, minReps, maxReps = 1, 2, 2
	}
	var inst instance
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = wl.setup(e); err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(w, "# size %s\n", inst.size())

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	var t tally
	var peaks []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < maxReps; i++ {
		iter := time.Now()
		reset := resetPeakRSS()
		t.add(inst.rep(nil))
		if rss, err := peakRSSMiB(); reset && err == nil {
			peaks = append(peaks, rss)
		}
		if i+1 >= minReps && time.Since(start)+time.Since(iter) > budget {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	alloc = ms.TotalAlloc - alloc
	if len(t.reps) == 0 {
		return outcome{}, errors.New("every repetition failed")
	}

	var rates, jobs []float64
	var edges, bytes, delivered int64
	for _, r := range t.reps {
		rates = append(rates, float64(r.edges)/r.wall.Seconds())
		for _, j := range r.jobs {
			jobs = append(jobs, float64(j.Nanoseconds())/1e6)
		}
		edges += r.edges
		bytes += r.bytes
		delivered += max(r.delivered, r.edges)
	}
	// The median of the repetitions' own high-water marks where the
	// kernel lets the mark be reset, the whole process's otherwise.
	rss := median(peaks)
	if len(peaks) < len(t.reps) {
		var err error
		if rss, err = peakRSSMiB(); err != nil {
			return outcome{}, err
		}
	}
	fmt.Fprintf(w, "# samples %d repetitions, %d jobs, %d set-ups\n", len(t.reps), len(jobs), setups)
	return outcome{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{
		"setup_s":              {Value: median(setupSecs)},
		"edges_per_sec":        {Value: median(rates)},
		"job_p50_ms":           {Value: median(jobs)},
		"alloc_bytes_per_edge": {Value: float64(alloc) / float64(delivered)},
		"peak_rss_mb":          {Value: rss},
		"bytes_per_edge":       {Value: float64(bytes) / float64(edges)},
	}}, nil
}

func runTraced(o options, e env, wl workload, w io.Writer) (outcome, error) {
	inst, err := wl.setup(e)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	fmt.Fprintf(w, "# size %s\n", inst.size())

	// Untraced and traced repetitions alternate, so that drift of the
	// machine lands on both sides of bench.trace_overhead_share; they
	// get three fifths of the time, the layer pass the rest.
	minPairs, maxPairs := 3, math.MaxInt
	if o.smoke {
		minPairs, maxPairs = 1, 1
	}
	tr := newTracer(wl.name)
	var plain, traced tally
	budget := time.Duration(0.6 * o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < maxPairs; i++ {
		iter := time.Now()
		plain.add(inst.rep(nil))
		traced.add(inst.rep(tr))
		if i+1 >= minPairs && time.Since(start)+time.Since(iter) > budget {
			break
		}
	}
	if len(plain.reps) == 0 || len(traced.reps) == 0 {
		return outcome{}, errors.New("every repetition failed")
	}
	var rates, walls, plainBusy, tracedBusy []float64
	for _, r := range plain.reps {
		rates = append(rates, float64(r.edges)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		plainBusy = append(plainBusy, busy(r))
	}
	for _, r := range traced.reps {
		tracedBusy = append(tracedBusy, busy(r))
	}

	lp := &layerPass{
		micro:        time.Duration(0.015 * o.seconds * float64(time.Second)),
		reps:         3,
		untracedRate: median(rates),
		untracedWall: median(walls),
		out:          map[string]float64{},
	}
	if o.smoke {
		lp.reps = 1
	}
	lp.set("bench.trace_overhead_share", median(tracedBusy)/median(plainBusy)-1)
	spanMetrics(tr.spans, lp)
	if err := inst.layers(lp); err != nil {
		return outcome{}, fmt.Errorf("layer pass: %w", err)
	}

	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return outcome{}, err
	}
	path := filepath.Join(o.outdir, "trace-"+wl.name+".jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(w, "# samples %d untraced and %d traced repetitions, %d spans in %s\n",
		len(plain.reps), len(traced.reps), len(tr.spans), path)

	out := outcome{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range perLayer {
		out.Metrics[m.Name] = value{Value: lp.out[m.Name]} // 0: a layer this workload never enters
	}
	return out, nil
}

// spanMetrics turns the traced repetitions' spans into the layer
// metrics that are self times: where inside a generating call the wall
// went, and how much of a repetition no layer span accounts for.
func spanMetrics(spans []span, lp *layerPass) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var roots, rootDur, rootSelf, sink, available float64
	for _, s := range spans {
		switch base, _, _ := strings.Cut(s.Name, "["); {
		case s.Parent == 0:
			roots++
			rootDur += float64(s.EndNS - s.StartNS)
			rootSelf += float64(self[s.ID])
		case base == "gformat.write":
			sink += float64(s.EndNS - s.StartNS)
		case base == "core.worker":
			// A worker could have been drawing for as long as the job that
			// holds it ran: the root's child above this span.
			job := s
			for byID[job.Parent].Parent != 0 {
				job = byID[job.Parent]
			}
			available += float64(job.EndNS - job.StartNS)
		}
	}
	lp.set("bench.root_self_share", rootSelf/rootDur)
	plan, _ := sumSelf(spans, self, "partition.plan")
	draw, _ := sumSelf(spans, self, "core.worker")
	if available == 0 {
		return // no core.Generate* call the bench could put sinks into
	}
	lp.set("core.plan_s", plan.Seconds()/roots)
	lp.set("core.draw_s", draw.Seconds()/roots)
	lp.set("core.sink_s", sink/1e9/roots)
	lp.set("core.draw_share", float64(draw)/available)
}

// resetPeakRSS lowers the resident-set high-water mark to the current
// resident set (Linux: "5" into clear_refs), so that each repetition has
// a peak of its own. It reports whether the kernel allowed it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resultLine renders the outcome as the single JSON object the driver
// reads off the last line of standard output.
func resultLine(out outcome) (string, error) {
	b, err := json.Marshal(out)
	return string(b), err
}
