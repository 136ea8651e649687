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
// (by default) but de-escalation requires the signals to stay below
// the *exit* thresholds — a fraction of the entry thresholds — for
// several consecutive samples, so a load spike flapping around a
// threshold cannot oscillate the whole system between modes.
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/memacct"
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
	// TrackedBytes is the algorithmic working set charged to the
	// configured memacct.Acct (0 when none) — the structure-level view
	// that moves ahead of RSS, since Go's RSS lags frees. Only structures
	// that charge while they are live show up here; avs scopes charge and
	// release in one step (peak only) and contribute nothing.
	TrackedBytes int64
	// DiskUsedFrac is the used fraction of the watched disk (0 when no
	// path is configured); DiskFreeBytes the space still available.
	DiskUsedFrac  float64
	DiskFreeBytes int64
	// Goroutines and FDs are process-wide counts.
	Goroutines int
	FDs        int
}

// MemUsedFrac is the fraction of the memory budget in use: the larger
// of RSS and tracked bytes over the budget (0 when no budget).
func (s Signals) MemUsedFrac() float64 {
	if s.MemBudgetBytes <= 0 {
		return 0
	}
	used := s.RSSBytes
	if s.TrackedBytes > used {
		used = s.TrackedBytes
	}
	return float64(used) / float64(s.MemBudgetBytes)
}

// Thresholds are the per-signal entry bounds for Elevated and
// Critical. Zero fields take the documented defaults; a negative
// field disables that signal's contribution entirely.
type Thresholds struct {
	// LoadElevated/LoadCritical bound the per-CPU load average
	// (0 = 2 and 4: twice/four times as many runnable tasks as CPUs).
	LoadElevated, LoadCritical float64
	// MemElevated/MemCritical bound the used fraction of the memory
	// budget (0 = 0.85 and 0.95).
	MemElevated, MemCritical float64
	// DiskElevated/DiskCritical bound the watched disk's used fraction
	// (0 = 0.85 and 0.95).
	DiskElevated, DiskCritical float64
	// GoroutineElevated/GoroutineCritical bound the goroutine count
	// (0 = 50k and 200k — far above any healthy TrillionG process).
	GoroutineElevated, GoroutineCritical int
	// FDElevated/FDCritical bound open file descriptors (0 = 70% and
	// 90% of the soft RLIMIT_NOFILE, or 4096/8192 when unreadable).
	FDElevated, FDCritical int
	// ExitRatio scales entry thresholds into exit thresholds for
	// hysteresis: once a level is entered, it is held until the signal
	// drops below entry·ExitRatio (0 = 0.8; clamped to (0, 1]).
	ExitRatio float64
}

func (t Thresholds) withDefaults() Thresholds {
	defF := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	defI := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	defF(&t.LoadElevated, 2)
	defF(&t.LoadCritical, 4)
	defF(&t.MemElevated, 0.85)
	defF(&t.MemCritical, 0.95)
	defF(&t.DiskElevated, 0.85)
	defF(&t.DiskCritical, 0.95)
	defI(&t.GoroutineElevated, 50_000)
	defI(&t.GoroutineCritical, 200_000)
	if t.FDElevated == 0 || t.FDCritical == 0 {
		soft := fdSoftLimit()
		if soft <= 0 {
			defI(&t.FDElevated, 4096)
			defI(&t.FDCritical, 8192)
		} else {
			defI(&t.FDElevated, int(float64(soft)*0.7))
			defI(&t.FDCritical, int(float64(soft)*0.9))
		}
	}
	if t.ExitRatio <= 0 || t.ExitRatio > 1 {
		t.ExitRatio = 0.8
	}
	return t
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
	// Acct, when set, contributes memacct's tracked working-set bytes
	// to the memory signal alongside RSS.
	Acct *memacct.Acct
	// Thresholds tune the classification bounds.
	Thresholds Thresholds
	// RaiseAfter is how many consecutive samples must classify at a
	// higher level before escalating (0 = 1: escalate immediately).
	RaiseAfter int
	// LowerAfter is how many consecutive samples must classify at a
	// lower level before de-escalating (0 = 3: calm down slowly).
	LowerAfter int
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
	MetricTracked     = "os.mem_tracked_bytes"
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
	th  Thresholds
	tel *telemetry.Registry

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
	gTracked    *telemetry.Gauge
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
	if cfg.RaiseAfter < 1 {
		cfg.RaiseAfter = 1
	}
	if cfg.LowerAfter < 1 {
		cfg.LowerAfter = 3
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
		th:          cfg.Thresholds.withDefaults(),
		tel:         tel,
		samples:     tel.Counter(MetricSamples),
		transitions: tel.Counter(MetricTransitions),
		injected:    tel.Counter(MetricInjected),
		gLoad:       tel.Gauge(MetricLoadPerCPU),
		gRSS:        tel.Gauge(MetricRSS),
		gBudget:     tel.Gauge(MetricMemBudget),
		gMemFrac:    tel.Gauge(MetricMemUsedFrac),
		gTracked:    tel.Gauge(MetricTracked),
		gDiskUsed:   tel.Gauge(MetricDiskUsed),
		gDiskFree:   tel.Gauge(MetricDiskFree),
		gGoroutines: tel.Gauge(MetricGoroutines),
		gFDs:        tel.Gauge(MetricFDs),
	}
	tel.Gauge(MetricCPUs).Set(float64(numCPU()))
	tel.GaugeFunc(MetricLevel, func() float64 { return float64(c.Level()) })
	return c
}

// Telemetry returns the registry the controller records into.
func (c *Controller) Telemetry() *telemetry.Registry { return c.tel }

// RecoveryHint is the soonest a pressure episode can de-escalate:
// LowerAfter consecutive calm samples at the sampling interval.
// Admission surfaces use it as an honest Retry-After floor while
// shedding load.
func (c *Controller) RecoveryHint() time.Duration {
	return time.Duration(c.cfg.LowerAfter) * c.cfg.Interval
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
		sig = c.syntheticSignals(v)
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
	need := c.cfg.RaiseAfter
	if target < cur {
		need = c.cfg.LowerAfter
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
// entry·ExitRatio. The overall level is the worst per-signal level.
func (c *Controller) classify(sig Signals, cur Level) Level {
	worst := OK
	bump := func(l Level) {
		if l > worst {
			worst = l
		}
	}
	bump(levelForF(sig.LoadPerCPU, c.th.LoadElevated, c.th.LoadCritical, cur, c.th.ExitRatio))
	bump(levelForF(sig.MemUsedFrac(), c.th.MemElevated, c.th.MemCritical, cur, c.th.ExitRatio))
	bump(levelForF(sig.DiskUsedFrac, c.th.DiskElevated, c.th.DiskCritical, cur, c.th.ExitRatio))
	bump(levelForF(float64(sig.Goroutines), float64(c.th.GoroutineElevated), float64(c.th.GoroutineCritical), cur, c.th.ExitRatio))
	bump(levelForF(float64(sig.FDs), float64(c.th.FDElevated), float64(c.th.FDCritical), cur, c.th.ExitRatio))
	return worst
}

// levelForF classifies one signal value against its entry thresholds,
// holding the current level's grip until the value crosses the exit
// threshold. Non-positive thresholds disable the signal.
func levelForF(v, enterElev, enterCrit float64, cur Level, exitRatio float64) Level {
	if enterElev <= 0 || enterCrit <= 0 || v <= 0 {
		return OK
	}
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
	c.gTracked.Set(float64(sig.TrackedBytes))
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
func (c *Controller) syntheticSignals(spec string) Signals {
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
				sig.LoadPerCPU = c.syntheticLoad(l)
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
func (c *Controller) syntheticLoad(l Level) float64 {
	switch l {
	case Critical:
		return c.th.LoadCritical * 2
	case Elevated:
		// Midway between the two entries: above Elevated's entry, below
		// Critical's exit.
		return (c.th.LoadElevated + c.th.LoadCritical*c.th.ExitRatio) / 2
	}
	return 0
}

// String renders a sample for logs and drills.
func (s Signals) String() string {
	return fmt.Sprintf("load/cpu=%.2f mem=%.0f%% (rss=%d tracked=%d budget=%d) disk=%.0f%% goroutines=%d fds=%d",
		s.LoadPerCPU, s.MemUsedFrac()*100, s.RSSBytes, s.TrackedBytes, s.MemBudgetBytes,
		s.DiskUsedFrac*100, s.Goroutines, s.FDs)
}
