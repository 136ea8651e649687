// Package pressure turns raw host signals into a graceful-degradation
// ladder. TrillionG is designed to run at the edge of hardware
// capacity — a trillion-edge run on commodity machines — where an
// unaware process tips from "fast" into OOM kill, disk-full ingest
// corruption, or collapse under load. This package samples the host
// (load average per CPU, RSS against a memory budget, store-disk
// fullness, goroutine and file-descriptor counts) into `os.*`
// telemetry gauges and classifies the result into three levels:
//
//	OK        full capacity
//	Elevated  the host is warm: shrink concurrency, lengthen retry hints
//	Critical  the host is about to fall over: shed load, pause
//	          best-effort work, flip readiness probes
//
// Transitions are hysteretic and debounced: escalation is immediate
// but de-escalation requires the signals to stay below the *exit*
// thresholds — a fraction of the entry thresholds — for several
// consecutive samples, so a load spike flapping around a threshold
// cannot oscillate the whole system between modes.
//
// Consumers read Controller.Level (one atomic load, safe on admission
// hot paths) or subscribe with OnChange. The admission surfaces wired
// to it — internal/sched, internal/server, internal/store,
// internal/dist — degrade how much work runs and when, never what is
// generated: output bytes are identical at every pressure level.
//
// Synthetic pressure for tests and fire drills is injected through
// internal/faultpoint's "pressure" kind (see PointSignals), so chaos
// tests can deterministically drive ok→critical→ok transitions on an
// idle host.
package pressure

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/telemetry"
)

// Level is the controller's pressure classification. Levels are
// ordered: a higher level is strictly worse.
type Level int32

const (
	// OK: the host has headroom; run at full capacity.
	OK Level = iota
	// Elevated: the host is under sustained pressure; degrade
	// throughput-for-stability (shrink effective concurrency, lengthen
	// advertised retry hints).
	Elevated
	// Critical: the host is near a cliff (OOM, full disk, runaway
	// load); shed new work, pause the background class, and flip
	// readiness probes until the signals calm down.
	Critical
)

// String returns the level's wire name.
func (l Level) String() string {
	switch l {
	case OK:
		return "ok"
	case Elevated:
		return "elevated"
	case Critical:
		return "critical"
	}
	return "invalid"
}

// ParseLevel parses a wire name ("" = OK).
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "ok", "":
		return OK, true
	case "elevated":
		return Elevated, true
	case "critical":
		return Critical, true
	}
	return OK, false
}

// PointSignals is the faultpoint name the sampler consults every
// sample. Arm it with a "pressure" spec to replace the real host
// signals with synthetic ones:
//
//	TRILLIONG_FAULTPOINTS="pressure.signals=pressure:level=critical*20"
//
// The value is a semicolon-separated key=value list; when present, the
// sample starts from zeroed (benign) signals and applies only the
// listed keys, so injected transitions are deterministic even on a
// loaded CI host. Keys: level (ok|elevated|critical — synthesizes a
// per-CPU load decisively at that level), load (per-CPU load average),
// mem (used fraction of the memory budget), disk (used fraction of the
// store disk), goroutines, fds.
const PointSignals = "pressure.signals"

// Signals is one sample of host state. Zero fields mean "unknown or
// disabled": a zero value never escalates.
type Signals struct {
	// LoadPerCPU is the 1-minute load average divided by CPU count.
	LoadPerCPU float64
	// RSSBytes is the process resident set; MemBudgetBytes the budget
	// it is judged against (0 = memory check disabled).
	RSSBytes       int64
	MemBudgetBytes int64
	// DiskUsedFrac is the used fraction of the watched disk (0 when no
	// path is configured); DiskFreeBytes the space still available.
	DiskUsedFrac  float64
	DiskFreeBytes int64
	// Goroutines and FDs are process-wide counts.
	Goroutines int
	FDs        int
}

// MemUsedFrac is the fraction of the memory budget in use: RSS over
// the budget (0 when no budget).
func (s Signals) MemUsedFrac() float64 {
	if s.MemBudgetBytes <= 0 {
		return 0
	}
	return float64(s.RSSBytes) / float64(s.MemBudgetBytes)
}

// The classification bounds: per signal, the entry thresholds of
// Elevated and Critical. The file-descriptor pair is not here: it is
// 70 % and 90 % of the soft RLIMIT_NOFILE (fdThresholds).
const (
	// Per-CPU load average: twice and four times as many runnable
	// tasks as CPUs.
	loadElevated, loadCritical = 2.0, 4.0
	// Used fraction of the memory budget.
	memElevated, memCritical = 0.85, 0.95
	// Used fraction of the watched disk.
	diskElevated, diskCritical = 0.85, 0.95
	// Goroutine count: far above any healthy TrillionG process.
	goroutineElevated, goroutineCritical = 50_000, 200_000

	// exitRatio scales entry thresholds into exit thresholds for
	// hysteresis: once a level is entered, it is held until the signal
	// drops below entry·exitRatio.
	exitRatio = 0.8

	// raiseAfter is how many consecutive samples must classify at a
	// higher level before escalating: escalate immediately.
	raiseAfter = 1
	// lowerAfter is how many consecutive samples must classify at a
	// lower level before de-escalating: calm down slowly.
	lowerAfter = 3
)

// fdThresholds returns the file-descriptor entry thresholds: 70 % and
// 90 % of the soft RLIMIT_NOFILE, or 4096 and 8192 when it is
// unreadable.
func fdThresholds() (elevated, critical float64) {
	soft := fdSoftLimit()
	if soft <= 0 {
		return 4096, 8192
	}
	return math.Floor(float64(soft) * 0.7), math.Floor(float64(soft) * 0.9)
}

// Config configures a Controller.
type Config struct {
	// Interval is the background sampling period for Start (0 = 1s).
	// Sample may always be called directly regardless.
	Interval time.Duration
	// MemBudgetBytes is the memory budget RSS is judged against
	// (0 = total host memory from /proc/meminfo; negative = disabled).
	MemBudgetBytes int64
	// DiskPath, when set, watches that filesystem's fullness —
	// typically the artifact store or output directory.
	DiskPath string
	// Telemetry receives the os.* and pressure.* metrics
	// (nil = private registry).
	Telemetry *telemetry.Registry
}

// Metric names the controller publishes (docs/OBSERVABILITY.md is the
// catalog).
const (
	MetricLoadPerCPU  = "os.load_per_cpu"
	MetricCPUs        = "os.cpus"
	MetricRSS         = "os.mem_rss_bytes"
	MetricMemBudget   = "os.mem_budget_bytes"
	MetricMemUsedFrac = "os.mem_used_frac"
	MetricDiskUsed    = "os.disk_used_frac"
	MetricDiskFree    = "os.disk_free_bytes"
	MetricGoroutines  = "os.goroutines"
	MetricFDs         = "os.fds"

	MetricLevel       = "pressure.level"
	MetricSamples     = "pressure.samples_total"
	MetricTransitions = "pressure.transitions_total"
	MetricInjected    = "pressure.injected_samples_total"
)

// Controller samples host signals and maintains the current pressure
// level. All methods are safe for concurrent use; Level is one atomic
// load.
type Controller struct {
	cfg Config
	tel *telemetry.Registry
	// fdElevated and fdCritical are the descriptor entry thresholds,
	// read from RLIMIT_NOFILE once at New.
	fdElevated, fdCritical float64

	level atomic.Int32

	mu        sync.Mutex
	pending   Level // level the recent samples have been voting for
	votes     int   // consecutive samples voting pending
	onChange  []func(Level)
	lastSig   Signals
	stopped   chan struct{} // non-nil while the background loop runs
	stopOnce  *sync.Once
	loopGroup sync.WaitGroup

	samples     *telemetry.Counter
	transitions *telemetry.Counter
	injected    *telemetry.Counter
	gLoad       *telemetry.Gauge
	gRSS        *telemetry.Gauge
	gBudget     *telemetry.Gauge
	gMemFrac    *telemetry.Gauge
	gDiskUsed   *telemetry.Gauge
	gDiskFree   *telemetry.Gauge
	gGoroutines *telemetry.Gauge
	gFDs        *telemetry.Gauge
}

// New builds a Controller. No sampling happens until Start or Sample.
func New(cfg Config) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MemBudgetBytes == 0 {
		cfg.MemBudgetBytes = hostMemoryBytes()
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	c := &Controller{
		cfg:         cfg,
		tel:         tel,
		samples:     tel.Counter(MetricSamples),
		transitions: tel.Counter(MetricTransitions),
		injected:    tel.Counter(MetricInjected),
		gLoad:       tel.Gauge(MetricLoadPerCPU),
		gRSS:        tel.Gauge(MetricRSS),
		gBudget:     tel.Gauge(MetricMemBudget),
		gMemFrac:    tel.Gauge(MetricMemUsedFrac),
		gDiskUsed:   tel.Gauge(MetricDiskUsed),
		gDiskFree:   tel.Gauge(MetricDiskFree),
		gGoroutines: tel.Gauge(MetricGoroutines),
		gFDs:        tel.Gauge(MetricFDs),
	}
	c.fdElevated, c.fdCritical = fdThresholds()
	tel.Gauge(MetricCPUs).Set(float64(numCPU()))
	tel.GaugeFunc(MetricLevel, func() float64 { return float64(c.Level()) })
	return c
}

// Telemetry returns the registry the controller records into.
func (c *Controller) Telemetry() *telemetry.Registry { return c.tel }

// RecoveryHint is the soonest a pressure episode can de-escalate:
// lowerAfter consecutive calm samples at the sampling interval.
// Admission surfaces use it as an honest Retry-After floor while
// shedding load.
func (c *Controller) RecoveryHint() time.Duration {
	return lowerAfter * c.cfg.Interval
}

// Level returns the current pressure level (one atomic load).
func (c *Controller) Level() Level { return Level(c.level.Load()) }

// LastSignals returns the most recent sample (zero before the first).
func (c *Controller) LastSignals() Signals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSig
}

// OnChange registers fn to run on every level transition, called with
// the new level from the sampling goroutine (or the Sample caller).
// Callbacks must be quick and must not call back into Sample.
func (c *Controller) OnChange(fn func(Level)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onChange = append(c.onChange, fn)
}

// Start launches the background sampling loop; the returned function
// stops it (idempotent). Starting an already-started controller
// returns a stop for the existing loop.
func (c *Controller) Start() (stop func()) {
	c.mu.Lock()
	if c.stopped != nil {
		stopCh, once := c.stopped, c.stopOnce
		c.mu.Unlock()
		return func() { once.Do(func() { close(stopCh) }) }
	}
	stopCh := make(chan struct{})
	once := new(sync.Once)
	c.stopped, c.stopOnce = stopCh, once
	c.loopGroup.Add(1)
	c.mu.Unlock()

	go func() {
		defer c.loopGroup.Done()
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-tick.C:
				c.Sample()
			}
		}
	}()
	return func() {
		once.Do(func() { close(stopCh) })
		c.loopGroup.Wait()
		c.mu.Lock()
		if c.stopped == stopCh {
			c.stopped, c.stopOnce = nil, nil
		}
		c.mu.Unlock()
	}
}

// Force sets the level directly — no sampling, no debounce — and
// notifies subscribers on a change. It exists for consumer tests and
// operator fire drills ("what does this system shed at critical?");
// production transitions come from Sample. The next Sample resumes
// normal classification from the forced level, hysteresis included.
func (c *Controller) Force(lvl Level) {
	var fire []func(Level)
	c.mu.Lock()
	c.pending, c.votes = lvl, 0
	if Level(c.level.Load()) != lvl {
		c.level.Store(int32(lvl))
		c.transitions.Inc()
		fire = append(fire, c.onChange...)
	}
	c.mu.Unlock()
	for _, fn := range fire {
		fn(lvl)
	}
}

// Sample takes one sample — real host signals, or synthetic ones when
// the PointSignals faultpoint is armed — publishes the os.* gauges,
// and advances the debounced level machine. It returns the signals and
// the (possibly new) level. Tests drive transitions deterministically
// by calling Sample directly.
func (c *Controller) Sample() (Signals, Level) {
	sig := readSignals(c.cfg)
	if v, ok := faultpoint.FireValue(PointSignals); ok {
		// Injected samples replace the real ones entirely, so a chaos
		// scenario is deterministic even on a loaded host.
		sig = syntheticSignals(v)
		c.injected.Inc()
	}
	c.samples.Inc()
	c.publish(sig)

	target := c.classify(sig, c.Level())
	lvl := c.step(target)
	return sig, lvl
}

// step advances the debounce machine toward target and returns the
// resulting level, notifying subscribers on a transition.
func (c *Controller) step(target Level) Level {
	cur := c.Level()
	var fire []func(Level)
	c.mu.Lock()
	if target == cur {
		c.pending, c.votes = cur, 0
		c.mu.Unlock()
		return cur
	}
	if target != c.pending {
		c.pending, c.votes = target, 0
	}
	c.votes++
	need := raiseAfter
	if target < cur {
		need = lowerAfter
	}
	if c.votes < need {
		c.mu.Unlock()
		return cur
	}
	c.pending, c.votes = target, 0
	c.level.Store(int32(target))
	c.transitions.Inc()
	fire = append(fire, c.onChange...)
	c.mu.Unlock()
	for _, fn := range fire {
		fn(target)
	}
	return target
}

// classify maps one sample to its target level under hysteresis: a
// signal that entered a level holds it until it drops below
// entry·exitRatio. The overall level is the worst per-signal level.
func (c *Controller) classify(sig Signals, cur Level) Level {
	return max(
		levelFor(sig.LoadPerCPU, loadElevated, loadCritical, cur),
		levelFor(sig.MemUsedFrac(), memElevated, memCritical, cur),
		levelFor(sig.DiskUsedFrac, diskElevated, diskCritical, cur),
		levelFor(float64(sig.Goroutines), goroutineElevated, goroutineCritical, cur),
		levelFor(float64(sig.FDs), c.fdElevated, c.fdCritical, cur),
	)
}

// levelFor classifies one signal value against its entry thresholds,
// holding the current level's grip until the value crosses the exit
// threshold. A zero value (unknown) is below every exit threshold.
func levelFor(v, enterElev, enterCrit float64, cur Level) Level {
	switch {
	case v >= enterCrit, cur >= Critical && v >= enterCrit*exitRatio:
		return Critical
	case v >= enterElev, cur >= Elevated && v >= enterElev*exitRatio:
		return Elevated
	}
	return OK
}

// publish writes one sample into the os.* gauges.
func (c *Controller) publish(sig Signals) {
	c.gLoad.Set(sig.LoadPerCPU)
	c.gRSS.Set(float64(sig.RSSBytes))
	c.gBudget.Set(float64(sig.MemBudgetBytes))
	c.gMemFrac.Set(sig.MemUsedFrac())
	c.gDiskUsed.Set(sig.DiskUsedFrac)
	c.gDiskFree.Set(float64(sig.DiskFreeBytes))
	c.gGoroutines.Set(float64(sig.Goroutines))
	c.gFDs.Set(float64(sig.FDs))
	c.mu.Lock()
	c.lastSig = sig
	c.mu.Unlock()
}

// syntheticSignals builds a sample from a faultpoint value string: a
// semicolon-separated key=value list applied onto zeroed signals.
// Unknown keys and malformed values are ignored — an injection must
// never crash the process it is drilling.
func syntheticSignals(spec string) Signals {
	var sig Signals
	for _, kv := range strings.Split(spec, ";") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			continue
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "level":
			if l, ok := ParseLevel(val); ok {
				sig.LoadPerCPU = syntheticLoad(l)
			}
		case "load":
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				sig.LoadPerCPU = f
			}
		case "mem":
			// Express a used fraction against a synthetic 1-GiB budget.
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				sig.MemBudgetBytes = 1 << 30
				sig.RSSBytes = int64(f * float64(sig.MemBudgetBytes))
			}
		case "disk":
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				sig.DiskUsedFrac = f
			}
		case "goroutines":
			if n, err := strconv.Atoi(val); err == nil {
				sig.Goroutines = n
			}
		case "fds":
			if n, err := strconv.Atoi(val); err == nil {
				sig.FDs = n
			}
		}
	}
	return sig
}

// syntheticLoad returns a per-CPU load decisively at the given level:
// well past the entry threshold for Elevated/Critical, zero for OK.
func syntheticLoad(l Level) float64 {
	switch l {
	case Critical:
		return loadCritical * 2
	case Elevated:
		// Midway between the two entries: above Elevated's entry, below
		// Critical's exit.
		return (loadElevated + loadCritical*exitRatio) / 2
	}
	return 0
}

// String renders a sample for logs and drills.
func (s Signals) String() string {
	return fmt.Sprintf("load/cpu=%.2f mem=%.0f%% (rss=%d budget=%d) disk=%.0f%% goroutines=%d fds=%d",
		s.LoadPerCPU, s.MemUsedFrac()*100, s.RSSBytes, s.MemBudgetBytes,
		s.DiskUsedFrac*100, s.Goroutines, s.FDs)
}
