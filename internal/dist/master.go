package dist

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/pressure"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// MasterConfig configures RunMaster.
type MasterConfig struct {
	// Addr is the listen address ("host:port"; port 0 picks one).
	Addr string
	// Workers is the number of worker processes to wait for before
	// planning. More may join later; fewer may suffice (MinWorkers).
	Workers int
	// MinWorkers lets a run start degraded: when AcceptTimeout expires
	// with at least MinWorkers (but fewer than Workers) registered, the
	// master plans and proceeds anyway (0 = Workers, i.e. no degraded
	// start).
	MinWorkers int
	// Parts fixes the total number of ranges/part files. 0 derives it
	// from the thread sum of the workers registered when the gate
	// opens — convenient, but then the file layout depends on who
	// showed up; pin Parts for runs that must be comparable or
	// resumable across cluster incarnations.
	Parts int
	// Config is the graph to generate.
	Config core.Config
	// Community, when non-nil, generates a community-composed graph
	// instead of Config: the work units are the layout's blocks (Parts
	// is ignored — the block count decides), and every lease carries the
	// spec so workers rebuild the layout deterministically.
	Community *community.Config
	// Format is the output format for every worker.
	Format gformat.Format
	// AcceptTimeout bounds the wait for registrations before the run
	// starts, and doubles as the idle watchdog: a started run with
	// outstanding parts but zero connected workers for this long is
	// aborted (0 = 60s).
	AcceptTimeout time.Duration
	// HandshakeTimeout bounds each small gob exchange (Hello read, Job
	// and Bye writes), so a hung or half-open worker connection cannot
	// block the master forever (0 = 30s).
	HandshakeTimeout time.Duration
	// HeartbeatInterval is the heartbeat period workers are told to
	// use (0 = 2s).
	HeartbeatInterval time.Duration
	// ResultTimeout bounds the silence on a connection holding a
	// lease; each Heartbeat, Done or Fail resets it. 0 derives it from
	// the heartbeat interval (5 missed beats). Heartbeats are what
	// make this finite bound safe for arbitrarily long generations.
	ResultTimeout time.Duration
	// MaxRetries caps how many times a single range may be requeued
	// after a fault before the run is aborted (0 = 2; every range gets
	// at most MaxRetries+1 attempts).
	MaxRetries int
	// MaxLeaseRanges caps the ranges handed out per lease regardless of
	// the worker's thread count (0 = no cap beyond threads). Smaller
	// leases shrink the requeue blast radius when a worker dies at the
	// price of more round trips.
	MaxLeaseRanges int
	// Telemetry receives the master's lease/requeue/heartbeat metrics
	// (see internal/dist metric constants). nil uses a private
	// registry, so instrumentation is always on and never global.
	Telemetry *telemetry.Registry
}

func (c MasterConfig) minWorkers() int {
	if c.MinWorkers > 0 {
		return c.MinWorkers
	}
	return c.Workers
}

func (c MasterConfig) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 2
}

func (c MasterConfig) heartbeat() time.Duration {
	if c.HeartbeatInterval > 0 {
		return c.HeartbeatInterval
	}
	return 2 * time.Second
}

func (c MasterConfig) resultTimeout() time.Duration {
	if c.ResultTimeout > 0 {
		return c.ResultTimeout
	}
	return 5 * c.heartbeat()
}

// Summary aggregates a distributed run.
type Summary struct {
	// Workers and TotalThreads describe the fleet registered when the
	// start gate opened (reconnects and late joiners are not counted).
	Workers      int
	TotalThreads int
	// Parts is the number of ranges/part files planned.
	Parts        int
	Edges        int64
	Attempts     int64
	MaxDegree    int64
	PeakBytes    int64
	BytesWritten int64
	// SkippedParts counts leased parts workers skipped because their
	// files already existed (resumed work). PartsFromCache counts parts
	// workers satisfied from their artifact store instead of
	// generating. Requeues counts leases returned to the queue after a
	// disconnect, stall or failure.
	SkippedParts   int
	PartsFromCache int
	Requeues       int
	// PlanDuration is the master-side planning time; Elapsed the wall
	// time from gate open to last completion.
	PlanDuration, Elapsed time.Duration
}

// Master coordinates one distributed generation.
type Master struct {
	cfg MasterConfig
	src core.PartSource
	ln  net.Listener
	tel *telemetry.Registry

	mu   sync.Mutex
	cond *sync.Cond
	// Start gate.
	registered  int  // connections that completed Hello
	gateThreads int  // thread sum while the gate is open for counting
	gateClosed  bool // Run has taken its fleet snapshot
	// Work queue (valid once planned). Dispatch order comes from the
	// cost-aware fair queue, not FIFO: fresh ranges enter as Batch and
	// requeued ones as Background, so a burst of retries cannot jump
	// ahead of first-attempt work — it trickles back in at background
	// weight, apportioned by expected edges.
	planned   bool
	ranges    []partition.Range
	queue     *sched.FairQueue // payloads are range ids
	attempts  []int            // requeue count per range id
	completed []bool
	remaining int
	active    int // currently connected workers
	// hotActive counts connected workers whose last protocol message
	// advertised critical host pressure. While at least one cooler
	// worker is connected (active > hotActive), hot workers are offered
	// only requeued (Background) ranges — fresh work routes to hosts
	// with headroom. When every worker is hot, leasing proceeds as
	// normal: a uniformly-starved fleet must still finish the run.
	hotActive int
	fatal     error
	finished  bool
	sum       Summary

	handlers sync.WaitGroup
}

// NewMaster validates the configuration and starts listening, so the
// bound address (Addr) is known before workers are launched.
func NewMaster(cfg MasterConfig) (*Master, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("dist: master needs ≥ 1 worker")
	}
	if cfg.MinWorkers < 0 || cfg.MinWorkers > cfg.Workers {
		return nil, fmt.Errorf("dist: min workers %d outside [0, %d]", cfg.MinWorkers, cfg.Workers)
	}
	if cfg.Parts < 0 {
		return nil, fmt.Errorf("dist: negative parts")
	}
	if cfg.MaxLeaseRanges < 0 {
		return nil, fmt.Errorf("dist: negative max lease ranges")
	}
	src, err := partSource(cfg.Config, cfg.Community)
	if err != nil {
		return nil, err
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = 60 * time.Second
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	m := &Master{cfg: cfg, src: src, ln: ln, tel: cfg.Telemetry, queue: sched.NewFairQueue()}
	if m.tel == nil {
		m.tel = telemetry.NewRegistry()
	}
	m.cond = sync.NewCond(&m.mu)
	m.tel.GaugeFunc(MetricQueueDepth, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.queue.Len())
	})
	m.tel.GaugeFunc(MetricWorkersHot, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.hotActive)
	})
	return m, nil
}

// Addr returns the bound listen address.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Telemetry returns the registry the master records into — the one
// from MasterConfig, or the private default.
func (m *Master) Telemetry() *telemetry.Registry { return m.tel }

// Close releases the listener (Run closes it itself on completion).
func (m *Master) Close() error { return m.ln.Close() }

// Run accepts registrations, leases ranges until every part is
// accounted for, and aggregates the results.
func (m *Master) Run() (Summary, error) {
	defer m.ln.Close()
	m.handlers.Add(1)
	go m.acceptLoop()

	// Start gate: wait for the full fleet, or for AcceptTimeout with
	// at least MinWorkers.
	gateTimer := time.AfterFunc(m.cfg.AcceptTimeout, func() {
		m.mu.Lock()
		m.gateClosed = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	m.mu.Lock()
	for m.registered < m.cfg.Workers && !m.gateClosed {
		m.cond.Wait()
	}
	m.gateClosed = true
	gateTimer.Stop()
	if m.registered < m.cfg.minWorkers() {
		m.fatal = fmt.Errorf("dist: only %d of %d workers (minimum %d) registered within %v",
			m.registered, m.cfg.Workers, m.cfg.minWorkers(), m.cfg.AcceptTimeout)
		return m.finish()
	}
	m.sum.Workers = m.registered
	m.sum.TotalThreads = m.gateThreads
	parts := m.cfg.Parts
	if parts == 0 {
		parts = m.gateThreads
	}
	if m.cfg.Community != nil {
		// Community runs are block-granular: the layout fixes the part
		// count, so neither Parts nor the fleet's thread sum applies.
		parts = 0
	}
	m.mu.Unlock()

	planStart := time.Now()
	// Both sources return part ids 0..n-1, index-aligned with ranges, so
	// the queue payload (the range index) doubles as the part id.
	ranges, _, err := m.src.Plan(parts)
	parts = len(ranges)

	m.mu.Lock()
	m.sum.Parts = parts
	m.sum.PlanDuration = time.Since(planStart)
	if err != nil {
		m.fatal = err
		return m.finish()
	}
	m.ranges = ranges
	m.attempts = make([]int, parts)
	m.completed = make([]bool, parts)
	for i, r := range ranges {
		m.queue.Push(sched.Item{
			Tenant:  sched.DefaultTenant,
			Class:   sched.Batch,
			Cost:    r.Edges,
			Payload: i,
		})
	}
	m.remaining = parts
	m.planned = true
	m.cond.Broadcast()
	start := time.Now()
	m.mu.Unlock()

	go m.watchdog()

	m.mu.Lock()
	for m.remaining > 0 && m.fatal == nil {
		m.cond.Wait()
	}
	m.sum.Elapsed = time.Since(start)
	return m.finish()
}

// finish (called with mu held) marks the run over, releases every
// handler, and returns the outcome.
func (m *Master) finish() (Summary, error) {
	m.finished = true
	m.cond.Broadcast()
	sum, err := m.sum, m.fatal
	m.mu.Unlock()
	m.ln.Close() // stops acceptLoop and unblocks its handlers.Done
	m.handlers.Wait()
	return sum, err
}

// watchdog aborts a planned run that has outstanding parts but no
// connected workers for AcceptTimeout — otherwise a fully deserted
// queue would wait forever for a worker that never comes.
func (m *Master) watchdog() {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var idleSince time.Time
	for range tick.C {
		m.mu.Lock()
		if m.finished || m.fatal != nil {
			m.mu.Unlock()
			return
		}
		if m.remaining > 0 && m.active == 0 {
			if idleSince.IsZero() {
				idleSince = time.Now()
			} else if time.Since(idleSince) >= m.cfg.AcceptTimeout {
				m.fatal = fmt.Errorf("dist: no connected workers for %v with %d of %d parts outstanding",
					m.cfg.AcceptTimeout, m.remaining, len(m.ranges))
				m.cond.Broadcast()
				m.mu.Unlock()
				return
			}
		} else {
			idleSince = time.Time{}
		}
		m.mu.Unlock()
	}
}

func (m *Master) acceptLoop() {
	defer m.handlers.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed: the run is over
		}
		// Add is safe here: the loop's own count keeps the group > 0
		// until the listener closes.
		m.handlers.Add(1)
		go m.handleWorker(conn)
	}
}

// handleWorker serves one worker connection: register, then lease work
// until the queue drains or the connection faults. All network I/O
// happens outside the state mutex so one slow worker never serializes
// the others.
func (m *Master) handleWorker(conn net.Conn) {
	defer m.handlers.Done()
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)

	var first interface{}
	if err := decodeWithin(conn, dec, m.cfg.HandshakeTimeout, &first); err != nil {
		return // a silent or garbage connection must not hurt the run
	}
	hi, ok := first.(Hello)
	if !ok || hi.Threads < 1 {
		return
	}

	// lvl is this connection's last-advertised pressure level. Only this
	// handler goroutine touches it; m.hotActive is its mu-guarded
	// aggregate. An idle worker waiting for a lease sends nothing, so
	// its level is as fresh as its last Hello/Heartbeat/Done/Fail —
	// good enough, since a worker heats up by working, not by waiting.
	lvl := hi.Level
	observe := func(newLvl pressure.Level) {
		if newLvl == lvl {
			return
		}
		m.mu.Lock()
		if lvl >= pressure.Critical {
			m.hotActive--
		}
		if newLvl >= pressure.Critical {
			m.hotActive++
		}
		lvl = newLvl
		m.cond.Broadcast()
		m.mu.Unlock()
	}

	m.mu.Lock()
	m.registered++
	m.active++
	if lvl >= pressure.Critical {
		m.hotActive++
	}
	if !m.gateClosed {
		m.gateThreads += hi.Threads
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.tel.Counter(MetricWorkersRegistered).Inc()
	m.tel.Gauge(MetricWorkersActive).Add(1)
	defer func() {
		m.tel.Gauge(MetricWorkersActive).Add(-1)
		m.mu.Lock()
		m.active--
		if lvl >= pressure.Critical {
			m.hotActive--
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	}()

	sendBye := func() {
		var bye interface{} = Bye{}
		encodeWithin(conn, enc, m.cfg.HandshakeTimeout, &bye)
	}

	for {
		// Take the next lease (or learn the run is over). A critically
		// pressured worker is withheld fresh (Batch) ranges while any
		// cooler worker is connected — it waits for requeued
		// (Background) work, which it may still drain.
		withhold := false
		withheldNoted := false
		m.mu.Lock()
		for {
			if m.fatal != nil {
				m.mu.Unlock()
				return
			}
			// Check for completion before the finished flag: a clean
			// finish must release idle workers with Bye, not a closed
			// connection.
			if m.planned && m.remaining == 0 {
				m.mu.Unlock()
				sendBye()
				return
			}
			if m.finished {
				m.mu.Unlock()
				return
			}
			withhold = lvl >= pressure.Critical && m.active > m.hotActive
			if m.planned {
				avail := m.queue.Len()
				if withhold {
					avail = m.queue.LenClass(sched.Background)
					if avail == 0 && m.queue.Len() > 0 && !withheldNoted {
						m.tel.Counter(MetricLeasesWithheld).Inc()
						withheldNoted = true
					}
				}
				if avail > 0 {
					break
				}
			}
			m.cond.Wait()
		}
		var hotVeto func(sched.Item) sched.Decision
		if withhold {
			hotVeto = func(it sched.Item) sched.Decision {
				if it.Class != sched.Background {
					return sched.SkipClass
				}
				return sched.Take
			}
		}
		n := hi.Threads
		if m.cfg.MaxLeaseRanges > 0 && n > m.cfg.MaxLeaseRanges {
			n = m.cfg.MaxLeaseRanges
		}
		ids := make([]int, 0, min(n, m.queue.Len()))
		for len(ids) < n {
			it, ok := m.queue.Pop(hotVeto)
			if !ok {
				break
			}
			ids = append(ids, it.Payload.(int))
		}
		job := Job{
			Config:    m.cfg.Config,
			Community: m.cfg.Community,
			Format:    m.cfg.Format,
			Ranges:    make([]partition.Range, len(ids)),
			PartIDs:   ids,
			Heartbeat: m.cfg.heartbeat(),
		}
		for i, id := range ids {
			job.Ranges[i] = m.ranges[id]
		}
		m.mu.Unlock()

		if err := faultpoint.Fire("dist.master.lease"); err != nil {
			m.requeue(ids, err.Error())
			return
		}
		var out interface{} = job
		if err := encodeWithin(conn, enc, m.cfg.HandshakeTimeout, &out); err != nil {
			m.requeue(ids, fmt.Sprintf("sending lease: %v", err))
			return
		}
		m.tel.Counter(MetricLeaseGrants).Inc()

		// Await the lease result; heartbeats reset the silence clock.
		// lastMsg feeds the heartbeat-gap histogram: a rising p99 gap is
		// the early-warning signal for workers drifting toward the
		// ResultTimeout expiry cliff.
		lastMsg := time.Now()
	result:
		for {
			var in interface{}
			if err := decodeWithin(conn, dec, m.cfg.resultTimeout(), &in); err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					m.tel.Counter(MetricLeaseExpiries).Inc()
				}
				m.requeue(ids, fmt.Sprintf("worker lost mid-lease: %v", err))
				return
			}
			m.tel.Histogram(MetricHeartbeatGap).ObserveDuration(time.Since(lastMsg))
			lastMsg = time.Now()
			faultpoint.Fire("dist.master.result")
			switch r := in.(type) {
			case Heartbeat:
				observe(r.Level)
				// A beating worker can outlive the run (its lease was
				// requeued and finished elsewhere, or the run went
				// fatal); don't let it hold the master open.
				m.mu.Lock()
				over := m.finished || m.fatal != nil
				m.mu.Unlock()
				if over {
					return
				}
				continue
			case Done:
				observe(r.Level)
				m.tel.Counter(MetricMasterEdges).Add(r.Edges)
				m.tel.Counter(MetricPartsSkipped).Add(int64(r.Skipped))
				m.tel.Counter(MetricPartsFromCache).Add(int64(r.FromCache))
				if r.GenDuration > 0 && r.Edges > 0 {
					m.tel.Histogram(MetricWorkerEdgesPerSec).Observe(float64(r.Edges) / r.GenDuration.Seconds())
				}
				m.mu.Lock()
				for _, id := range ids {
					if !m.completed[id] {
						m.completed[id] = true
						m.remaining--
						m.tel.Counter(MetricPartsCompleted).Inc()
					}
				}
				m.sum.Edges += r.Edges
				m.sum.Attempts += r.Attempts
				m.sum.BytesWritten += r.BytesWritten
				m.sum.SkippedParts += r.Skipped
				m.sum.PartsFromCache += r.FromCache
				if r.MaxDegree > m.sum.MaxDegree {
					m.sum.MaxDegree = r.MaxDegree
				}
				if r.PeakWorkerBytes > m.sum.PeakBytes {
					m.sum.PeakBytes = r.PeakWorkerBytes
				}
				m.cond.Broadcast()
				m.mu.Unlock()
				break result
			case Fail:
				observe(r.Level)
				// The worker survives its own failure: requeue the
				// lease (another worker, or this one, retries) and
				// keep serving the connection.
				m.requeue(ids, "worker failed: "+r.Error)
				break result
			default:
				m.requeue(ids, fmt.Sprintf("unexpected message %T", in))
				return
			}
		}
	}
}

// requeue returns a faulted lease's uncompleted ranges to the queue,
// aborting the run for any range past its attempt cap.
func (m *Master) requeue(ids []int, cause string) {
	m.tel.Counter(MetricRequeues).Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.cond.Broadcast()
	m.sum.Requeues++
	for _, id := range ids {
		if m.completed[id] {
			continue // a duplicate Done beat us to it
		}
		m.attempts[id]++
		m.tel.Counter(MetricRequeuedRanges).Inc()
		m.tel.Counter(MetricRangeAttempts).Inc()
		if m.attempts[id] > m.cfg.maxRetries() {
			if m.fatal == nil {
				m.fatal = fmt.Errorf("dist: range %d exhausted %d attempts (last fault: %s)",
					id, m.attempts[id]+1, cause)
			}
			continue
		}
		m.queue.Push(sched.Item{
			Tenant:  sched.DefaultTenant,
			Class:   sched.Background,
			Cost:    m.ranges[id].Edges,
			Payload: id,
		})
	}
}
