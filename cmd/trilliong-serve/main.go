// Command trilliong-serve runs the TrillionG generation service: an
// HTTP API that streams synthetic graphs on demand. Because a graph is
// a pure function of (spec, master seed), the service is stateless —
// any replica streams bit-identical bytes for the same job spec.
//
// Usage:
//
//	trilliong-serve -addr :8080
//	trilliong-serve -addr :8080 -max-streams 8 -max-scale 30
//	trilliong-serve -tenant 'alice,weight=3,rate=1e6' -tenant 'bob' \
//	    -tenant-defaults 'max-queued=16,ttl=10s'
//
// Then:
//
//	curl -d '{"scale":20,"format":"tsv"}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/j00000001/stream > graph.tsv
//	curl localhost:8080/v1/jobs/j00000001        # status / progress
//	curl localhost:8080/debug/vars               # live counters (JSON)
//	curl localhost:8080/metrics                  # same data, Prometheus text
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM drains gracefully: new jobs get 503 while in-flight
// streams finish (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	trilliong "repro"
	"repro/cmd/internal/cliflags"
	"repro/internal/faultpoint"
)

// options collects the flag values so tests can exercise the plumbing
// without a listener.
type options struct {
	addr           string
	maxStreams     int
	maxJobs        int
	maxWorkers     int
	maxScale       int
	drainTimeout   time.Duration
	pprof          bool
	store          *cliflags.Store
	spoolDir       string
	presignTTL     time.Duration
	tenantSpecs    multiFlag
	tenantDefaults string
	pressure       bool
	pressureEvery  time.Duration
	memBudget      int64
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.maxStreams, "max-streams", 4, "concurrently streaming jobs (scheduler slots)")
	fs.IntVar(&o.maxJobs, "max-jobs", 1024, "job registry capacity")
	fs.IntVar(&o.maxWorkers, "max-workers", 0, "threads generating one job (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxScale, "max-scale", 34, "largest accepted scale")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "graceful shutdown bound")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	o.store = cliflags.StoreFlags(fs, "store-dir", "artifact store directory: cache streamed artifacts, enable /download")
	fs.StringVar(&o.spoolDir, "spool-dir", "", "staging directory for in-flight artifact copies (default: inside the store)")
	fs.DurationVar(&o.presignTTL, "presign-ttl", 15*time.Minute, "with an S3 -remote-store: /download answers 302 to a presigned URL valid this long for remote-only artifacts (0 = always stream locally)")
	fs.Var(&o.tenantSpecs, "tenant", "per-tenant scheduling limits, repeatable: name[,weight=N,rate=F,burst=F,max-active=N,max-queued=N|none,ttl=D]")
	fs.StringVar(&o.tenantDefaults, "tenant-defaults", "", "limits for tenants without a -tenant entry (same key=value list)")
	fs.BoolVar(&o.pressure, "pressure", false, "sample host pressure and degrade under load: shrink streams, pause background jobs, flip /readyz")
	fs.DurationVar(&o.pressureEvery, "pressure-interval", 0, "with -pressure: sampling interval (0 = 1s)")
	fs.Int64Var(&o.memBudget, "mem-budget-bytes", 0, "with -pressure: memory budget for the pressure signal (0 = detect from /proc/meminfo, <0 = disable)")
	return o
}

func (o *options) validate() error {
	if o.addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if o.maxStreams < 1 || o.maxJobs < 1 || o.maxScale < 1 {
		return fmt.Errorf("-max-streams, -max-jobs and -max-scale must be positive")
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive")
	}
	if o.pressureEvery < 0 {
		return fmt.Errorf("-pressure-interval must not be negative")
	}
	if (o.pressureEvery != 0 || o.memBudget != 0) && !o.pressure {
		return fmt.Errorf("-pressure-interval and -mem-budget-bytes require -pressure")
	}
	if err := o.store.Check(); err != nil {
		return err
	}
	if o.presignTTL < 0 {
		return fmt.Errorf("-presign-ttl must not be negative")
	}
	if _, err := o.tenants(); err != nil {
		return err
	}
	return nil
}

// tenants resolves the -tenant flag values to the scheduler's limit map
// (nil when no flag was given).
func (o *options) tenants() (map[string]trilliong.TenantLimits, error) {
	if len(o.tenantSpecs) == 0 {
		return nil, nil
	}
	out := make(map[string]trilliong.TenantLimits, len(o.tenantSpecs))
	for _, spec := range o.tenantSpecs {
		name, lim, err := trilliong.ParseTenantSpec(spec)
		if err != nil {
			return nil, err
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("-tenant %q given twice", name)
		}
		out[name] = lim
	}
	return out, nil
}

// newService builds the service from the flag values, attaching the
// artifact store (opened on the service's own telemetry registry, so
// the store.* metrics appear on /metrics) when -store-dir is set.
func (o *options) newService() (*trilliong.Server, error) {
	tenants, err := o.tenants()
	if err != nil {
		return nil, err
	}
	defaults, err := trilliong.ParseTenantLimits(o.tenantDefaults)
	if err != nil {
		return nil, fmt.Errorf("-tenant-defaults: %w", err)
	}
	svc := trilliong.NewServer(trilliong.ServerOptions{
		MaxActiveStreams: o.maxStreams,
		MaxJobs:          o.maxJobs,
		MaxWorkersPerJob: o.maxWorkers,
		MaxScale:         o.maxScale,
		EnablePprof:      o.pprof,
		Tenants:          tenants,
		TenantDefaults:   defaults,
		EnablePressure:   o.pressure,
		PressureConfig: trilliong.PressureConfig{
			Interval:       o.pressureEvery,
			MemBudgetBytes: o.memBudget,
			// Watch the disk that fills when streams are cached; without
			// a store there is nothing we write to locally.
			DiskPath: o.store.Dir,
		},
	})
	st, err := o.store.Open(svc.Telemetry())
	if err != nil {
		return nil, err
	}
	if st != nil {
		if err := svc.SetStore(st, o.spoolDir); err != nil {
			return nil, err
		}
		if o.store.Remote != "" {
			svc.SetPresignTTL(o.presignTTL)
		}
	}
	return svc, nil
}

// Slow-client bounds. A peer that opens a connection and never finishes
// its request headers, or parks an idle keep-alive forever, would
// otherwise pin a goroutine and a descriptor each. There is deliberately
// no WriteTimeout: a stream legitimately lasts as long as its job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fatal(err)
	}
	// Same env-armed injection as trilliong-dist; in this binary its
	// practical use is synthetic pressure (pressure.signals) drills.
	if err := faultpoint.ArmFromEnv(); err != nil {
		fatal(err)
	}
	svc, err := o.newService()
	if err != nil {
		fatal(err)
	}
	if p := svc.Pressure(); p != nil {
		stopSampling := p.Start()
		defer stopSampling()
	}
	httpSrv := newHTTPServer(o.addr, svc.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "trilliong-serve: listening on %s\n", o.addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "trilliong-serve: draining...")
	svc.BeginDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// http.Server.Shutdown waits for in-flight requests (the streams);
	// svc.Shutdown then confirms the job bookkeeping is settled.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "trilliong-serve: forced shutdown:", err)
	}
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "trilliong-serve: drain incomplete:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "trilliong-serve: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trilliong-serve:", err)
	os.Exit(1)
}
