// Command bench is the repository's benchmark: seven workloads over the
// generator's public entry points, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. BENCHMARK.json at the
// repository root declares the metrics, directions and regression
// bounds; README.md says why each workload exists and how to run,
// reseed and compare.
//
// One workload, as the driver runs it (from the repository root):
//
//	bash bench/run.sh --workload batch-sparse --seed 1 --seconds 10 --trace 0
//
// Everything — each workload in a fresh child process, untraced then
// traced — with a JSON report and traces under bench/out/:
//
//	bash bench/run.sh [-workloads a,b] [-seed N] [-runs N] [-seconds S] [-trace=false] [-out FILE]
//
// Two reports against each other:
//
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// runDeadline ends a single-workload run that hangs, inside the 180 s
	// the driver allows; childTimeout is the full run's patience with a
	// child before it kills it.
	runDeadline  = 170 * time.Second
	childTimeout = 120 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run this one workload and print its result line (the driver's mode)")
		names     = fs.String("workloads", "", "comma-separated subset for a full run (default: all seven)")
		seed      = fs.Uint64("seed", defaultSeed, "benchmark seed every workload's master seeds derive from")
		seconds   = fs.Float64("seconds", 10, "how long one run measures")
		trace     = fs.String("trace", "", "one workload: 1 runs traced and prints the per-layer metrics (default 0); full run: false skips the traced pass")
		runs      = fs.Int("runs", 1, "full run: untraced runs per workload, on seeds seed, seed+1, …; quartiles need several")
		out       = fs.String("out", filepath.Join("bench", "out", "report.json"), "full run: where the JSON report goes (traces go beside it)")
		tmp       = fs.String("tmp", filepath.Join(".bench_build", "tmp"), "where temp directories go; removed on success and failure")
		smoke     = fs.Bool("smoke", false, "tiny sizes and two repetitions: checks the harness, measures nothing")
		doCompare = fs.Bool("compare", false, "compare two reports: -compare A.json B.json")
		doSpread  = fs.Bool("spread", false, "print a report's end-to-end spread table: -spread A.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	traced, err := parseTrace(*trace, *workload == "")
	if err != nil {
		return fail(err)
	}

	switch {
	case *doCompare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two report files"))
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compare(a, b, os.Stdout) {
			return 1
		}
		return 0
	case *doSpread:
		if fs.NArg() != 1 {
			return fail(errors.New("-spread takes one report file"))
		}
		r, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		spreadTable(r, os.Stdout)
		return 0
	case *workload != "":
		o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke,
			tmp: *tmp, outdir: filepath.Dir(*out)}
		watchdog := time.AfterFunc(runDeadline, func() {
			fmt.Fprintf(os.Stderr, "bench: %s still running after %v; giving up\n", *workload, runDeadline)
			os.RemoveAll(*tmp)
			os.Exit(3)
		})
		defer watchdog.Stop()
		res, err := runWorkload(o, os.Stdout)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", *workload, err))
		}
		line, err := resultLine(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
		return 0
	default:
		return fullRun(*names, *seed, *seconds, *runs, traced, *smoke, *tmp, *out)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

// parseTrace reads -trace, which the driver passes as 0 or 1 and a
// person as true or false. Unset, it is on for a full run and off for a
// single workload.
func parseTrace(s string, full bool) (bool, error) {
	if s == "" {
		return full, nil
	}
	b, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("-trace %q: want 0, 1, true or false", s)
	}
	return b, nil
}

// cleanupOnSignal removes dir and exits when the process is told to
// stop, so an interrupted run leaves no temp files behind.
func cleanupOnSignal(dir string) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			os.RemoveAll(dir)
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}

// fullRun runs each selected workload in a fresh child process (so peak
// RSS, allocations and set-up are per workload): `runs` untraced runs on
// consecutive seeds, then one traced run. It prints every metric line
// the children print and writes the report.
func fullRun(names string, seed uint64, seconds float64, runs int, traced, smoke bool, tmp, out string) int {
	selected := workloads
	if names != "" {
		selected = nil
		for _, n := range strings.Split(names, ",") {
			wl, err := findWorkload(strings.TrimSpace(n))
			if err != nil {
				return fail(err)
			}
			selected = append(selected, wl)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return fail(err)
	}
	rep := report{Header: header{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), W: threads(), Commit: gitCommit(),
		Seed: seed, Runs: runs, Seconds: seconds, Smoke: smoke, Started: time.Now().UTC(),
		Sizes: map[string]string{}, Attempted: map[string]int{}, Failed: map[string]int{},
	}}
	fmt.Printf("# go %s, nproc %d, W %d, commit %s, seed %d, %d runs of %gs\n",
		rep.Header.GoVersion, rep.Header.NProc, rep.Header.W, rep.Header.Commit, seed, runs, seconds)

	for _, wl := range selected {
		rows := map[string]*row{}
		collect := func(kind string, decl []metric, res outcome) {
			for _, m := range decl {
				r := rows[m.Name]
				if r == nil {
					r = &row{Metric: m.Name, Workload: wl.name, Kind: kind, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Moves: m.Moves}
					rows[m.Name] = r
				}
				r.Values = append(r.Values, res.Metrics[m.Name].Value)
			}
		}
		child := func(seed uint64, trace bool) (outcome, bool) {
			args := []string{"--workload", wl.name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.FormatBool(trace),
				"-tmp", tmp, "-out", out}
			if smoke {
				args = append(args, "-smoke")
			}
			res, size, err := runChild(self, args)
			rep.Header.Attempted[wl.name] += max(res.Attempted, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (seed %d, trace %v): %v\n", wl.name, seed, trace, err)
				rep.Header.Failed[wl.name]++
				return res, false
			}
			rep.Header.Failed[wl.name] += res.Failed
			rep.Header.Sizes[wl.name] = size
			return res, true
		}
		for i := 0; i < runs; i++ {
			if res, ok := child(seed+uint64(i), false); ok {
				collect("end_to_end", endToEnd, res)
			}
		}
		if traced {
			if res, ok := child(seed, true); ok {
				collect("per_layer", perLayer, res)
			}
		}
		for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
			if r := rows[m.Name]; r != nil {
				r.summarize()
				rep.Rows = append(rep.Rows, *r)
			}
		}
	}
	if err := writeReport(out, rep); err != nil {
		return fail(err)
	}
	fmt.Println("# report written to", out)
	failed := 0
	for _, n := range rep.Header.Failed {
		failed += n
	}
	if failed > 0 {
		return fail(fmt.Errorf("%d operations failed", failed))
	}
	return 0
}

// runChild runs one workload in a child process pinned to W threads,
// echoes its metric lines, and returns its result line and its size
// line. A child that crashes, prints no result, or outlives
// childTimeout (it is killed) is an error.
func runChild(self string, args []string) (outcome, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(threads()), "GOGC=100")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if ctx.Err() != nil {
		return outcome{}, "", fmt.Errorf("killed after %v", childTimeout)
	}
	if err != nil {
		return outcome{}, "", err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var size string
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
		if s, ok := strings.CutPrefix(l, "# size "); ok {
			size = s
		}
	}
	var res outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return outcome{}, size, fmt.Errorf("no result line: %w", err)
	}
	return res, size, nil
}

// gitCommit names the measured commit when the tree is a git checkout
// (the driver's is not).
func gitCommit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
