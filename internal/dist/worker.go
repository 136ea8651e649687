package dist

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/pressure"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// MasterAddr is the master's "host:port".
	MasterAddr string
	// Threads is the number of generation goroutines this worker
	// offers; the master leases it at most Threads ranges at a time.
	Threads int
	// OutDir receives this worker's part files (local disk). Parts
	// already present are skipped, so pointing a restarted worker at
	// its old directory resumes its work.
	OutDir string
	// MaxDials caps consecutive unfruitful connection attempts —
	// failed dials, or sessions that died before receiving a lease —
	// before the worker gives up. A session that received a lease
	// resets the count (0 = 10).
	MaxDials int
	// Pressure, when set, stamps this worker's current host-pressure
	// level onto every protocol message (Hello, Heartbeat, Done, Fail),
	// letting the master route fresh ranges away from a straining host
	// while cooler workers are available. The caller owns the
	// controller's sampling loop. nil always advertises OK.
	Pressure *pressure.Controller
	// Store, when set, is consulted before generating each leased
	// range (a checksum-verified hit materializes the part without
	// regeneration) and receives every part this worker generates, so
	// requeue-after-crash and repeat runs become lookups. nil disables
	// caching.
	Store *store.Store
	// Telemetry receives the worker's lease/heartbeat metrics plus the
	// core generation stages of every lease it executes (serve it via
	// trilliong-dist's -metrics-addr). nil uses a private registry.
	Telemetry *telemetry.Registry

	// dialTimeout and redial replace defaultDialTimeout and the
	// default redial schedule in tests.
	dialTimeout time.Duration
	redial      backoff.Policy
}

// defaultDialTimeout bounds each connection attempt.
const defaultDialTimeout = 10 * time.Second

func (c WorkerConfig) maxDials() int {
	if c.MaxDials > 0 {
		return c.MaxDials
	}
	return 10
}

func (c WorkerConfig) level() pressure.Level {
	if c.Pressure == nil {
		return pressure.OK
	}
	return c.Pressure.Level()
}

// backoff schedules the wait between connection attempts: the backoff
// package's defaults (100ms base, 5s cap, doubling) with half of each
// delay jittered.
func (c WorkerConfig) backoff() backoff.Policy {
	p := c.redial
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	return p
}

// RunWorker connects to the master (retrying with exponential backoff
// and jitter, so workers may start before the master), then serves
// leases until the master says Bye. A connection lost mid-run —
// network fault, master-side requeue, injected chaos — is retried the
// same way: the worker re-registers and resumes, skipping any part
// files it already completed.
func RunWorker(cfg WorkerConfig) error {
	if cfg.Threads < 1 {
		return fmt.Errorf("dist: worker needs ≥ 1 thread")
	}
	if info, err := os.Stat(cfg.OutDir); err != nil {
		return fmt.Errorf("dist: output directory %q not usable: %v", cfg.OutDir, err)
	} else if !info.IsDir() {
		return fmt.Errorf("dist: output path %q is not a directory", cfg.OutDir)
	}
	if cfg.dialTimeout == 0 {
		cfg.dialTimeout = defaultDialTimeout
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}

	pol := cfg.backoff()
	failures := 0
	dials := 0
	var lastErr error
	for {
		if failures > 0 {
			if failures >= cfg.maxDials() {
				return fmt.Errorf("dist: giving up after %d connection attempts: %w", failures, lastErr)
			}
			pol.Sleep(failures-1, nil)
		}
		cfg.Telemetry.Counter(MetricWorkerDials).Inc()
		if dials++; dials > 1 {
			cfg.Telemetry.Counter(MetricWorkerReconnects).Inc()
		}
		conn, err := net.DialTimeout("tcp", cfg.MasterAddr, cfg.dialTimeout)
		if err != nil {
			failures++
			lastErr = fmt.Errorf("dialing master: %w", err)
			continue
		}
		done, leased, err := runSession(conn, cfg)
		conn.Close()
		if done {
			return nil
		}
		if leased {
			// The master was alive and working with us; treat the drop
			// as fresh and reconnect promptly.
			failures = 0
		}
		failures++
		lastErr = err
	}
}

// runSession speaks one connection's worth of protocol. It reports
// whether the master released us (done), whether at least one lease
// arrived (leased), and the error that ended the session otherwise.
func runSession(conn net.Conn, cfg WorkerConfig) (done, leased bool, err error) {
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	// The heartbeat goroutine and the lease loop share the encoder.
	var sendMu sync.Mutex
	send := func(v interface{}) error {
		sendMu.Lock()
		defer sendMu.Unlock()
		return enc.Encode(&v)
	}

	if err := faultpoint.Fire("dist.worker.hello"); err != nil {
		return false, false, sessionFault(conn, err)
	}
	if err := send(Hello{Threads: cfg.Threads, Level: cfg.level()}); err != nil {
		return false, false, fmt.Errorf("dist: hello: %w", err)
	}
	for {
		var msg interface{}
		if err := dec.Decode(&msg); err != nil {
			return false, leased, fmt.Errorf("dist: reading lease: %w", err)
		}
		switch job := msg.(type) {
		case Bye:
			return true, leased, nil
		case Job:
			leased = true
			cfg.Telemetry.Counter(MetricWorkerLeases).Inc()
			if err := faultpoint.Fire("dist.worker.job"); err != nil {
				return false, leased, sessionFault(conn, err)
			}
			reply, err := executeLease(job, cfg, conn, send)
			if err != nil {
				if errors.Is(err, faultpoint.ErrDrop) {
					return false, leased, sessionFault(conn, err)
				}
				cfg.Telemetry.Counter(MetricWorkerFailures).Inc()
				if serr := send(Fail{Error: err.Error(), Level: cfg.level()}); serr != nil {
					return false, leased, fmt.Errorf("dist: sending failure: %w", serr)
				}
				continue // the master requeues; await the next lease
			}
			if err := faultpoint.Fire("dist.worker.result"); err != nil {
				return false, leased, sessionFault(conn, err)
			}
			if serr := send(reply); serr != nil {
				return false, leased, fmt.Errorf("dist: sending result: %w", serr)
			}
		default:
			return false, leased, fmt.Errorf("dist: unexpected message %T", msg)
		}
	}
}

// sessionFault closes the connection (simulating a vanished worker for
// ErrDrop faults) and surfaces the fault as the session error.
func sessionFault(conn net.Conn, err error) error {
	conn.Close()
	return err
}

// executeLease makes the leased parts exist — skipping parts whose
// files are already complete in OutDir, then core.RunParts for the rest
// (store fetch, else generate and ingest) — while a sibling goroutine
// heartbeats progress to the master.
func executeLease(job Job, cfg WorkerConfig, conn net.Conn, send func(interface{}) error) (Done, error) {
	src, err := partSource(job.Config, job.Community)
	if err != nil {
		return Done{}, err
	}
	missing, missingIDs := core.MissingParts(cfg.OutDir, job.Format, job.Ranges, job.PartIDs)
	skipped := len(job.Ranges) - len(missing)
	cfg.Telemetry.Counter(MetricWorkerSkips).Add(int64(skipped))

	var scopes atomic.Int64
	stop := make(chan struct{})
	var hb sync.WaitGroup
	if job.Heartbeat > 0 {
		hb.Add(1)
		go func() {
			defer hb.Done()
			sendLat := cfg.Telemetry.Histogram(MetricHeartbeatSend)
			tick := time.NewTicker(job.Heartbeat)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := faultpoint.Fire("dist.worker.heartbeat"); err != nil {
						if errors.Is(err, faultpoint.ErrDrop) {
							conn.Close()
							return
						}
						continue // a failed beat is just a missed beat
					}
					beatStart := time.Now()
					if send(Heartbeat{ScopesDone: scopes.Load(), Level: cfg.level()}) != nil {
						return // the lease loop will notice the dead conn
					}
					// Round trip through the shared encoder onto the
					// wire: the worker-side half of the latency the
					// master's gap histogram sees.
					sendLat.ObserveDuration(time.Since(beatStart))
				}
			}
		}()
	}

	// Any range generated before — by this worker, a previous
	// incarnation, or anyone sharing the store — is a verified copy
	// instead of a regeneration. The registry rides along so a worker's
	// -metrics-addr shows live core-pipeline throughput, and every
	// written chunk bumps the heartbeat's progress counter and passes the
	// chaos point.
	st, err := core.RunParts(src, cfg.OutDir, job.Format, missing, missingIDs, cfg.Store, cfg.Telemetry,
		core.PartSinkOptions{}, func(_ int, done core.Stats) error {
			if err := faultpoint.Fire("dist.worker.scope"); err != nil {
				return err
			}
			scopes.Add(done.Scopes)
			return nil
		})
	cfg.Telemetry.Counter(MetricWorkerCacheHits).Add(int64(st.PartsFromCache))
	close(stop)
	hb.Wait()
	if err != nil {
		return Done{}, err
	}
	return Done{
		Edges:           st.Edges,
		Attempts:        st.Attempts,
		MaxDegree:       st.MaxDegree,
		PeakWorkerBytes: st.PeakWorkerBytes,
		BytesWritten:    st.BytesWritten,
		GenDuration:     st.GenDuration,
		Skipped:         skipped,
		FromCache:       st.PartsFromCache,
		Level:           cfg.level(),
	}, nil
}
