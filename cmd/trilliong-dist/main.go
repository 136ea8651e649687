// Command trilliong-dist runs TrillionG across machines: one master
// plans the AVS partition and scatters vertex-range assignments; each
// worker generates its share to local disk. This is the paper's
// 10-PC deployment on plain TCP.
//
// On the master machine:
//
//	trilliong-dist -role master -listen :7070 -workers 10 -scale 30 -format adj6
//
// On each worker machine:
//
//	trilliong-dist -role worker -master master-host:7070 -threads 6 -out /data/graph
//
// The output is the union of every worker's part files, bit-identical
// to a single-machine run with the same flags.
//
// The runtime is fault-tolerant (see docs/DIST.md): leases held by a
// worker that disconnects or stalls past the heartbeat deadline are
// requeued onto surviving workers, workers reconnect with exponential
// backoff, and a restarted worker pointed at its old -out directory
// skips part files it already completed. -min-workers permits a
// degraded start; -parts pins the file layout so runs stay comparable
// across cluster incarnations; -faultpoints (or TRILLIONG_FAULTPOINTS)
// arms fault injection for drills.
//
// Alternatively, -masterless drops the master entirely: every process
// is a swarm worker that derives the plan and its walk order (heaviest
// part first, the same on every worker) from the job flags alone and
// rendezvouses with its peers purely through the shared -out directory
// (and -store, when given) — zero messages, no leases, workers free to
// join or die at any time (docs/DIST.md has the failure model). A worker
// takes a part by creating its claim marker (part-NNNNN.<ext>.claim.tmp)
// beside the part's final name, passes over parts whose marker a peer
// holds, and steals one only when the marker has outlasted its patience
// (-scan-interval at least). Each worker of one job runs the identical
// job flags against the same shared directory:
//
//	trilliong-dist -masterless -scale 30 -parts 512 -format adj6 \
//	    -out /shared/graph -store /shared/store -threads 6
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/cmd/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/store"
	"repro/internal/swarm"
	"repro/internal/telemetry"
)

var (
	role        = flag.String("role", "", "master or worker")
	listen      = flag.String("listen", ":7070", "master: listen address")
	workers     = flag.Int("workers", 1, "master: worker processes to wait for")
	minWorkers  = flag.Int("min-workers", 0, "master: start degraded with this many workers once -accept-timeout expires (0 = require -workers)")
	parts       = flag.Int("parts", 0, "master: pin the part-file count (0 = thread sum at start)")
	graph       = cliflags.GraphFlags(flag.CommandLine, "", "masterseed", 20)
	format      = flag.String("format", "adj6", "master: output format")
	acceptTO    = flag.Duration("accept-timeout", 0, "master: registration wait / idle watchdog (0 = 60s)")
	heartbeat   = flag.Duration("heartbeat", 0, "master: heartbeat interval workers must keep (0 = 2s)")
	resultTO    = flag.Duration("result-timeout", 0, "master: max silence on a leased connection (0 = 5 heartbeats)")
	maxRetries  = flag.Int("max-retries", 0, "master: requeues per range before aborting (0 = 2)")
	maxLease    = flag.Int("max-lease", 0, "master: ranges per lease regardless of worker threads (0 = no cap)")
	masterAddr  = flag.String("master", "", "worker: master host:port")
	threads     = flag.Int("threads", 1, "worker: generation goroutines")
	out         = flag.String("out", "", "worker: local output directory")
	maxDials    = flag.Int("max-dials", 0, "worker: consecutive failed connection attempts before giving up (0 = 10)")
	stores      = cliflags.StoreFlags(flag.CommandLine, "store", "worker: artifact store directory (cached ranges are copied, not regenerated)")
	withPres    = flag.Bool("pressure", false, "worker: sample host pressure and advertise it in heartbeats so the master routes fresh ranges to cooler machines")
	masterless  = flag.Bool("masterless", false, "run as a swarm worker: no master, walk order derived from the job flags, rendezvous through the shared -out dir/-store (ignores -role)")
	swarmID     = flag.Uint64("swarm-id", 0, "masterless: worker identity, shown in its summary; every worker walks the same order (0 = random)")
	scanEvery   = flag.Duration("scan-interval", 0, "masterless: patience floor — a peer's claim marker (a file beside the part; the rendezvous surface is files only) is left alone at least this long, longer when this worker's own parts are slower, before its part is stolen (0 = 250ms)")
	maxEpochs   = flag.Int("max-epochs", 0, "masterless: abort if a verifying scan still finds parts missing after this many claim passes; a clean run needs one (0 = unbounded)")
	commSpec    = flag.String("community", "", "community spec JSON file: generate a community composition (master and masterless; blocks are the work units)")
	faults      = flag.String("faultpoints", "", "arm fault injection, e.g. 'dist.worker.scope=crash*1' (also via "+faultpoint.EnvVar+")")
	metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus) and /debug/vars (JSON) on this address")
	withPprof   = flag.Bool("pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof/")
)

func main() {
	flag.Parse()

	tel := telemetry.NewRegistry()
	if *metricsAddr != "" {
		if err := serveMetrics(*metricsAddr, tel, *withPprof); err != nil {
			fatal(err)
		}
	}

	if err := faultpoint.ArmFromEnv(); err != nil {
		fatal(err)
	}
	if *faults != "" {
		if err := faultpoint.ArmSpecs(*faults); err != nil {
			fatal(err)
		}
	}

	// classicConfig is the single-model job the flags describe (both the
	// master and a masterless worker need it when -community is unset).
	classicConfig := func() core.Config {
		cfg, err := graph.Config()
		if err != nil {
			fatal(err)
		}
		return cfg
	}

	if *masterless {
		f, err := gformat.ParseFormat(*format)
		if err != nil {
			fatal(err)
		}
		if *out == "" {
			fatal(fmt.Errorf("masterless needs -out (the shared rendezvous directory)"))
		}
		var src core.PartSource
		if *commSpec != "" {
			// The layout fixes the part count (one per block), so -parts
			// need not — and must not — be pinned.
			lay, err := cliflags.Community(*commSpec)
			if err != nil {
				fatal(err)
			}
			*parts = lay.NumBlocks()
			src = lay
		} else {
			if *parts < 1 {
				fatal(fmt.Errorf("masterless needs -parts pinned (> 0): with no master, the file layout must not depend on who shows up"))
			}
			src = classicConfig()
		}
		st, ctrl, stop := workerSetup(tel)
		defer stop()
		sum, err := swarm.Run(src, *out, f, swarm.Options{
			Parts: *parts, WorkerID: *swarmID, Threads: *threads,
			ScanInterval: *scanEvery, MaxEpochs: *maxEpochs,
			Store: st, Pressure: ctrl, Telemetry: tel,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("swarm worker     %016x (%d parts job-wide, %d threads)\n", sum.WorkerID, sum.Parts, *threads)
		fmt.Printf("claimed          %d parts won, %d publish races lost, %d skipped, %d from store\n", sum.Claimed, sum.Lost, sum.Skipped, sum.FromCache)
		fmt.Printf("markers          %d parts deferred to a peer's claim, %d stolen, %v waiting on peers\n", sum.Deferred, sum.Stolen, sum.Waited)
		fmt.Printf("verified         %d present parts across scans\n", sum.Verified)
		fmt.Printf("epochs           %d claim passes\n", sum.Epochs)
		fmt.Printf("edges generated  %d (%d bytes, duplicates included)\n", sum.Edges, sum.BytesWritten)
		fmt.Printf("plan / elapsed   %v / %v\n", sum.PlanDuration, sum.Elapsed)
		return
	}

	switch *role {
	case "master":
		f, err := gformat.ParseFormat(*format)
		if err != nil {
			fatal(err)
		}
		mc := dist.MasterConfig{
			Addr: *listen, Workers: *workers, MinWorkers: *minWorkers,
			Parts: *parts, Format: f,
			AcceptTimeout: *acceptTO, HeartbeatInterval: *heartbeat,
			ResultTimeout: *resultTO, MaxRetries: *maxRetries,
			MaxLeaseRanges: *maxLease,
			Telemetry:      tel,
		}
		var targetEdges int64
		if *commSpec != "" {
			lay, err := cliflags.Community(*commSpec)
			if err != nil {
				fatal(err)
			}
			ccfg := lay.Config()
			mc.Community = &ccfg
			targetEdges = lay.TotalEdges()
		} else {
			mc.Config = classicConfig()
			targetEdges = mc.Config.NumEdges()
		}
		m, err := dist.NewMaster(mc)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("master listening on %s, waiting for %d workers...\n", m.Addr(), *workers)
		sum, err := m.Run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("workers          %d (%d threads, %d parts)\n", sum.Workers, sum.TotalThreads, sum.Parts)
		fmt.Printf("edges            %d (target %d)\n", sum.Edges, targetEdges)
		fmt.Printf("max out-degree   %d\n", sum.MaxDegree)
		fmt.Printf("bytes written    %d across workers\n", sum.BytesWritten)
		if sum.Requeues > 0 || sum.SkippedParts > 0 {
			fmt.Printf("fault recovery   %d requeues, %d parts resumed from disk\n", sum.Requeues, sum.SkippedParts)
		}
		fmt.Printf("plan / elapsed   %v / %v\n", sum.PlanDuration, sum.Elapsed)
		fmt.Printf("peak worker mem  %d bytes\n", sum.PeakBytes)
	case "worker":
		if *masterAddr == "" || *out == "" {
			fatal(fmt.Errorf("worker needs -master and -out"))
		}
		st, ctrl, stop := workerSetup(tel)
		defer stop()
		if err := dist.RunWorker(dist.WorkerConfig{
			MasterAddr: *masterAddr, Threads: *threads, OutDir: *out,
			MaxDials: *maxDials, Telemetry: tel, Store: st,
			Pressure: ctrl,
		}); err != nil {
			fatal(err)
		}
		fmt.Println("worker done")
	default:
		fatal(fmt.Errorf("-role must be master or worker"))
	}
}

// workerSetup readies what a generating worker (masterless or leased)
// runs with: the -out directory, the artifact store and, with
// -pressure, a controller watching the disk the part files land on (the
// os.* and pressure.* gauges ride the -metrics-addr registry). stop
// ends its sampling.
func workerSetup(tel *telemetry.Registry) (st *store.Store, ctrl *pressure.Controller, stop func()) {
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	st, err := stores.Open(tel)
	if err != nil {
		fatal(err)
	}
	if !*withPres {
		return st, nil, func() {}
	}
	ctrl = pressure.New(pressure.Config{DiskPath: *out, Telemetry: tel})
	return st, ctrl, ctrl.Start()
}

// serveMetrics starts the observability sidecar listener: the process
// telemetry as Prometheus text on /metrics and expvar-style JSON on
// /debug/vars, plus (opt-in) the pprof endpoints. It runs for the life
// of the process; generation traffic stays on the main port.
func serveMetrics(addr string, tel *telemetry.Registry, withPprof bool) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", tel.PrometheusHandler())
	mux.Handle("GET /debug/vars", tel.JSONHandler())
	if withPprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	fmt.Fprintf(os.Stderr, "trilliong-dist: metrics on http://%s/metrics\n", ln.Addr())
	go http.Serve(ln, mux)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trilliong-dist:", err)
	os.Exit(1)
}
