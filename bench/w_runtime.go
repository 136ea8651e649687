package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gformat"
	"repro/internal/swarm"
	"repro/internal/telemetry"
)

// runtimeJob is the one job swarm-2w and dist-2w both run — same
// config, format and part count — so the masterless and the master
// runtime can be read off two rows of the same report.
type runtimeJob struct {
	name   string
	e      env
	cfg    core.Config
	format gformat.Format
	parts  int
	ref    reference
	base   string
	verify bool
	run    func(j *runtimeJob, tr *tracer, root int, dir string) (failed int, err error)

	// Accumulated by run over every repetition after the warm-up.
	makespan  []float64 // s
	epochsMax int
	lost      int
	idle      []float64 // s, summed over workers
	gate      []float64 // ms
	plan      []float64 // ms
	requeues  int
}

// runtimeMasterSeed is the one master seed of swarm-2w and dist-2w,
// whatever --seed says. A swarm worker's claim schedule is a hash of
// the config fingerprint (master seed included) and its WorkerID, and
// with two workers the distance between their starting offsets alone
// moves the makespan between 1x and 1.9x of the ideal split (measured:
// 0.63 to 1.46 s over 16 ID pairs at scale 18). Deriving the seed from
// --seed would redraw that lottery on every run and bury everything
// else under a 20 % spread; a fixed seed keeps one ticket. README.md
// says what that costs.
const runtimeMasterSeed = 0x5EED

func setupSwarm(e env) (instance, error) { return setupRuntime(e, "swarm-2w", runSwarm) }
func setupDist(e env) (instance, error)  { return setupRuntime(e, "dist-2w", runDist) }

func setupRuntime(e env, name string, run func(*runtimeJob, *tracer, int, string) (int, error)) (instance, error) {
	cfg := core.DefaultConfig(pick(e, 18, 11))
	cfg.MasterSeed = runtimeMasterSeed
	j := &runtimeJob{name: name, e: e, cfg: cfg, format: gformat.ADJ6, parts: 16, run: run}
	var err error
	if j.base, err = e.mkdir(name); err != nil {
		return nil, err
	}
	ranges, err := core.Plan(cfg, j.parts)
	if err != nil {
		return nil, err
	}
	if j.ref, err = referenceFor(cfg, j.format, ranges); err != nil {
		return nil, err
	}
	j.verify = true
	r, err := j.rep(nil)
	j.verify = false
	if err == nil && r.failed > 0 {
		err = fmt.Errorf("%s: %d of %d warm-up parts missing or different from the in-process reference", name, r.failed, r.ops)
	}
	if err != nil {
		j.close()
		return nil, err
	}
	j.makespan, j.epochsMax, j.lost, j.idle, j.gate, j.plan, j.requeues = nil, 0, 0, nil, nil, nil, 0
	return j, nil
}

func (j *runtimeJob) size() string {
	return fmt.Sprintf("scale %d, edge factor %d, %v, %d parts, %d workers x 1 thread: %d edges, %d bytes",
		j.cfg.Scale, j.cfg.EdgeFactor, j.format, j.parts, j.e.W, j.ref.edges, j.ref.bytes)
}

func (j *runtimeJob) close() { os.RemoveAll(j.base) }

func (j *runtimeJob) rep(tr *tracer) (repResult, error) {
	dir, err := os.MkdirTemp(j.base, "rep")
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)

	root := tr.begin(0, j.name)
	start := time.Now()
	failed, err := j.run(j, tr, root, dir)
	wall := time.Since(start)
	tr.finish(root, j.ref.edges)
	if err != nil {
		return repResult{}, err
	}
	j.makespan = append(j.makespan, wall.Seconds())
	bad := checkParts(dir, j.format, j.ref, j.verify)
	// The directory holding exactly the reference's parts is what says
	// the reference's edges were delivered.
	return repResult{
		wall: wall, edges: j.ref.edges, bytes: j.ref.bytes,
		jobs: []time.Duration{wall},
		ops:  j.parts, failed: failed + bad,
	}, nil
}

// runSwarm starts W masterless workers with fixed identities on one
// shared directory and waits for all of them.
func runSwarm(j *runtimeJob, tr *tracer, root int, dir string) (failed int, err error) {
	sums := make([]swarm.Summary, j.e.W)
	errs := make([]error, j.e.W)
	regs := make([]*telemetry.Registry, j.e.W)
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := swarm.Options{Parts: j.parts, WorkerID: uint64(w + 1), Threads: 1}
			if tr != nil {
				regs[w] = telemetry.NewRegistry()
				opts.Telemetry = regs[w]
			}
			span := tr.begin(root, spanName("swarm.worker", w))
			sums[w], errs[w] = swarm.Run(j.cfg, dir, j.format, opts)
			tr.finish(span, sums[w].Edges)
		}(w)
	}
	wg.Wait()
	claimed, idle := 0, 0.0
	for w, s := range sums {
		if errs[w] != nil {
			return 0, fmt.Errorf("swarm worker %d: %w", w+1, errs[w])
		}
		claimed += s.Claimed
		j.lost += s.Lost
		j.epochsMax = max(j.epochsMax, s.Epochs)
		if regs[w] != nil {
			busy := regs[w].Stage(core.StageRecvecBuild).Seconds() + regs[w].Stage(core.StageScopeDraw).Seconds() +
				regs[w].Stage(core.StageSinkWrite).Seconds()
			idle += s.Elapsed.Seconds() - busy
		}
	}
	if tr != nil {
		j.idle = append(j.idle, idle)
	}
	// Two workers finishing the same part within the same instant can
	// both count it as won; like a lost claim that is duplicated work, not
	// a failure — what the directory holds decides that.
	j.lost += max(claimed-j.parts, 0)
	return 0, nil
}

// runDist runs the same job through the TCP master and W workers, timed
// from NewMaster until every worker has returned.
func runDist(j *runtimeJob, tr *tracer, root int, dir string) (failed int, err error) {
	start := time.Now()
	m, err := dist.NewMaster(dist.MasterConfig{Addr: "127.0.0.1:0", Workers: j.e.W, Parts: j.parts, Config: j.cfg, Format: j.format})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	errs := make([]error, j.e.W)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			span := tr.begin(root, spanName("dist.worker", w))
			errs[w] = dist.RunWorker(dist.WorkerConfig{MasterAddr: m.Addr(), Threads: 1, OutDir: dir})
			tr.finish(span, 0)
		}(w)
	}
	span := tr.begin(root, "dist.master_run")
	sum, err := m.Run()
	tr.finish(span, sum.Edges)
	wg.Wait()
	total := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("dist master: %w", err)
	}
	for w, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("dist worker %d: %w", w, err)
		}
	}
	j.gate = append(j.gate, float64((total-sum.Elapsed).Nanoseconds())/1e6)
	j.plan = append(j.plan, float64(sum.PlanDuration.Nanoseconds())/1e6)
	j.requeues += sum.Requeues
	if sum.Edges != j.ref.edges {
		fmt.Fprintf(os.Stderr, "bench: dist-2w: master counted %d edges, reference has %d\n", sum.Edges, j.ref.edges)
		failed++
	}
	return failed + sum.Requeues, nil
}

func (j *runtimeJob) layers(lp *layerPass) error {
	if err := lp.common(j.cfg); err != nil {
		return err
	}
	if err := lp.partition(j.cfg, j.parts); err != nil {
		return err
	}
	// The batch wall for the same parts: plan, then one goroutine per
	// part into atomic part files, as the runtimes' workers write them.
	var batch []float64
	err := lp.loopReps(func() error {
		dir, err := os.MkdirTemp(j.base, "batch")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		ranges, err := core.Plan(j.cfg, j.parts)
		if err != nil {
			return err
		}
		ids := make([]int, len(ranges))
		for i := range ids {
			ids[i] = i
		}
		_, err = core.GenerateRanges(j.cfg, ranges, core.AtomicPartSinks(dir, j.format, j.cfg.NumVertices(), ids))
		batch = append(batch, time.Since(start).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	prefix := "swarm."
	if j.name == "dist-2w" {
		prefix = "dist."
		lp.set("dist.gate_ms", median(j.gate))
		lp.set("dist.plan_ms", median(j.plan))
		lp.set("dist.requeues", float64(j.requeues))
	} else {
		lp.set("swarm.epochs_max", float64(j.epochsMax))
		lp.set("swarm.lost_parts", float64(j.lost))
		lp.set("swarm.idle_s", median(j.idle))
	}
	lp.set(prefix+"makespan_s", median(j.makespan))
	lp.set(prefix+"overhead_vs_batch", median(j.makespan)/median(batch))
	return nil
}
