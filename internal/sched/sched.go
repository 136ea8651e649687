package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/pressure"
	"repro/internal/telemetry"
)

// DefaultTenant is the tenant unauthenticated / unlabeled work is
// accounted to.
const DefaultTenant = "default"

// NoQueue disables queueing in Limits.MaxQueued: work that cannot be
// dispatched immediately is rejected instead of waiting.
const NoQueue = -1

// Defaults for zero-valued configuration.
const (
	DefaultSlots     = 4
	DefaultMaxQueued = 64
	DefaultQueueTTL  = 30 * time.Second

	// maxRetryAfter caps advertised retry hints; an hour-long hint is
	// indistinguishable from "go away" and confuses retry loops.
	maxRetryAfter = time.Hour
)

// Limits bounds one tenant. The zero value means "scheduler defaults":
// weight 1, no rate limit, no concurrency quota, a DefaultMaxQueued
// queue shed after DefaultQueueTTL.
type Limits struct {
	// Weight is the tenant's fair share (relative to other tenants'
	// weights; 0 = 1). A weight-3 tenant gets 3x the dispatched cost of
	// a weight-1 tenant when both are saturating.
	Weight int
	// MaxInFlight caps the tenant's concurrently held slots
	// (0 = unlimited, i.e. bounded only by total Slots).
	MaxInFlight int
	// MaxQueued bounds the tenant's wait queue (0 = DefaultMaxQueued,
	// NoQueue = reject instead of queueing).
	MaxQueued int
	// QueueTTL sheds work still queued after this long
	// (0 = DefaultQueueTTL; negative = never shed).
	QueueTTL time.Duration
	// Rate refills the tenant's token bucket in cost units (expected
	// edges) per second; 0 = unlimited. Admission spends Cost tokens and
	// may drive the bucket negative ("debt"), so one huge job is
	// admitted but rate-limits its tenant until the debt drains.
	Rate float64
	// Burst is the bucket capacity (0 = one second of Rate).
	Burst float64
}

func (l Limits) weight() float64 {
	if l.Weight < 1 {
		return 1
	}
	return float64(l.Weight)
}

func (l Limits) maxQueued() int {
	switch {
	case l.MaxQueued == NoQueue:
		return 0
	case l.MaxQueued <= 0:
		return DefaultMaxQueued
	}
	return l.MaxQueued
}

func (l Limits) queueTTL() time.Duration {
	switch {
	case l.QueueTTL < 0:
		return 0 // never shed
	case l.QueueTTL == 0:
		return DefaultQueueTTL
	}
	return l.QueueTTL
}

func (l Limits) burst() float64 {
	if l.Burst > 0 {
		return l.Burst
	}
	return l.Rate
}

// Config configures a Scheduler.
type Config struct {
	// Slots is the total number of concurrently granted jobs (0 = 4).
	Slots int
	// Tenants are per-tenant limits; tenants not listed get Defaults.
	Tenants map[string]Limits
	// Defaults applies to tenants absent from Tenants.
	Defaults Limits
	// Telemetry receives the sched.* metrics (nil = private registry).
	Telemetry *telemetry.Registry
	// Pressure, when set, degrades the scheduler with host pressure:
	// the effective slot pool shrinks (3/4 at elevated, 1/2 at
	// critical, never below one so admitted work keeps draining), the
	// background class is paused at critical, and advertised Retry-After
	// hints stretch (2x elevated, 4x critical) to spread the retry herd
	// while the host recovers. New subscribes to the controller so a
	// level drop re-dispatches parked waiters immediately.
	Pressure *pressure.Controller
}

// Reason classifies an admission rejection.
type Reason int

const (
	// QueueFull: the tenant's bounded queue is at capacity (or queueing
	// is disabled and no slot was free).
	QueueFull Reason = iota
	// RateLimited: the tenant's token bucket is in debt.
	RateLimited
	// Shed: the work waited its full QueueTTL without being dispatched.
	Shed
)

func (r Reason) String() string {
	switch r {
	case QueueFull:
		return "queue full"
	case RateLimited:
		return "rate limited"
	case Shed:
		return "shed after queue deadline"
	}
	return "rejected"
}

// AdmissionError is a scheduling rejection. RetryAfter is an honest
// estimate of when retrying could succeed: queue drain time for
// QueueFull/Shed, token-debt payoff time for RateLimited.
type AdmissionError struct {
	Tenant     string
	Class      Class
	Reason     Reason
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	// Round to milliseconds, not seconds: sub-second hints must not
	// render as the nonsensical "retry in 0s".
	return fmt.Sprintf("sched: tenant %q %s class: %s (retry in %v)",
		e.Tenant, e.Class, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Request asks for one slot.
type Request struct {
	// Tenant is the accounting principal ("" = DefaultTenant).
	Tenant string
	// Class is the priority class.
	Class Class
	// Cost is the expected work in edges (≤ 0 = 1); it drives both
	// fair-share charging and the token bucket.
	Cost int64
}

// Metric names the scheduler publishes (docs/OBSERVABILITY.md is the
// catalog). Per-tenant queue depths appear as
// "sched.queue_depth.tenant.<name>", per-class wait-time histograms as
// MetricWaitSeconds + "." + class name.
const (
	MetricAdmitted            = "sched.admitted_total"
	MetricGranted             = "sched.granted_total"
	MetricShed                = "sched.shed_total"
	MetricCanceled            = "sched.canceled_total"
	MetricRejectedQueueFull   = "sched.rejected_queue_full_total"
	MetricRejectedRateLimited = "sched.rejected_rate_limited_total"
	MetricGrantsActive        = "sched.grants_active"
	MetricSlotsFree           = "sched.slots_free"
	MetricSlotsEffective      = "sched.slots_effective"
	MetricBackgroundPaused    = "sched.background_paused"
	MetricBackgroundDeferred  = "sched.background_deferred_total"
	MetricWaitSeconds         = "sched.wait_seconds"
	MetricServiceSeconds      = "sched.service_seconds"
	MetricQueueDepthPrefix    = "sched.queue_depth"
)

// Scheduler is the admission controller: Acquire blocks until the
// request is granted a slot (fair-share order), rejected (quota, rate,
// bounded queue), shed (TTL) or canceled (ctx). Release the grant when
// the work finishes.
type Scheduler struct {
	mu      sync.Mutex
	cfg     Config
	slots   int
	free    int
	fq      *FairQueue
	tenants map[string]*tenantState
	now     func() time.Time // tests substitute

	// ewmaService tracks mean grant hold time (seconds) for honest
	// queue-drain Retry-After estimates.
	ewmaService   float64
	queuedByClass [numClasses]int

	tel         *telemetry.Registry
	admitted    *telemetry.Counter
	granted     *telemetry.Counter
	shed        *telemetry.Counter
	canceled    *telemetry.Counter
	rejectQF    *telemetry.Counter
	rejectRL    *telemetry.Counter
	bgDeferred  *telemetry.Counter
	active      *telemetry.Gauge
	waitAll     *telemetry.Histogram
	waitByClass [numClasses]*telemetry.Histogram
	service     *telemetry.Histogram
}

// New builds a Scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Slots < 1 {
		cfg.Slots = DefaultSlots
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &Scheduler{
		cfg:        cfg,
		slots:      cfg.Slots,
		free:       cfg.Slots,
		fq:         NewFairQueue(),
		tenants:    make(map[string]*tenantState),
		now:        time.Now,
		tel:        tel,
		admitted:   tel.Counter(MetricAdmitted),
		granted:    tel.Counter(MetricGranted),
		shed:       tel.Counter(MetricShed),
		canceled:   tel.Counter(MetricCanceled),
		rejectQF:   tel.Counter(MetricRejectedQueueFull),
		rejectRL:   tel.Counter(MetricRejectedRateLimited),
		bgDeferred: tel.Counter(MetricBackgroundDeferred),
		active:     tel.Gauge(MetricGrantsActive),
		waitAll:    tel.Histogram(MetricWaitSeconds),
		service:    tel.Histogram(MetricServiceSeconds),
	}
	tel.GaugeFunc(MetricSlotsFree, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.free)
	})
	tel.GaugeFunc(MetricSlotsEffective, func() float64 {
		return float64(s.effectiveSlots(s.level()))
	})
	tel.GaugeFunc(MetricBackgroundPaused, func() float64 {
		if s.level() >= pressure.Critical {
			return 1
		}
		return 0
	})
	if p := cfg.Pressure; p != nil {
		// A level drop is a capacity change with no Acquire/Release event
		// attached; re-dispatch so parked waiters don't wait for one.
		p.OnChange(func(pressure.Level) { s.Poke() })
	}
	for c := Class(0); c < numClasses; c++ {
		c := c
		s.waitByClass[c] = tel.Histogram(MetricWaitSeconds + "." + c.String())
		tel.GaugeFunc(MetricQueueDepthPrefix+".class."+c.String(), func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.queuedByClass[c])
		})
	}
	return s
}

// Telemetry returns the registry the scheduler records into.
func (s *Scheduler) Telemetry() *telemetry.Registry { return s.tel }

// Slots returns the total slot count.
func (s *Scheduler) Slots() int { return s.slots }

// tenantState is one tenant's live accounting.
type tenantState struct {
	name     string
	lim      Limits
	tokens   float64
	lastFill time.Time
	inFlight int
	queued   int
}

// tenantLocked returns (creating if needed) the tenant's state.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	lim, ok := s.cfg.Tenants[name]
	if !ok {
		lim = s.cfg.Defaults
	}
	t := &tenantState{name: name, lim: lim, tokens: lim.burst(), lastFill: s.now()}
	s.tenants[name] = t
	s.fq.SetWeight(name, lim.weight())
	s.tel.GaugeFunc(MetricQueueDepthPrefix+".tenant."+name, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(t.queued)
	})
	return t
}

// waiter is one parked Acquire. State transitions happen under
// Scheduler.mu only; ready is closed exactly once, on grant.
type waiter struct {
	tenant string
	class  Class
	cost   int64
	enq    time.Time
	state  int // wPending | wGranted | wGone
	grant  *Grant
	ready  chan struct{}
}

const (
	wPending = iota
	wGranted
	wGone
)

// Grant is one held slot.
type Grant struct {
	s        *Scheduler
	tenant   string
	class    Class
	cost     int64
	start    time.Time
	released bool
}

// Tenant returns the granted tenant.
func (g *Grant) Tenant() string { return g.tenant }

// Release frees the slot and dispatches the next waiter. Idempotent.
func (g *Grant) Release() {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.released {
		return
	}
	g.released = true
	held := g.s.now().Sub(g.start).Seconds()
	g.s.service.Observe(held)
	// EWMA with alpha 1/8: smooth enough to survive one outlier, fresh
	// enough to track a shift in workload size.
	if g.s.ewmaService == 0 {
		g.s.ewmaService = held
	} else {
		g.s.ewmaService += (held - g.s.ewmaService) / 8
	}
	g.s.free++
	g.s.active.Add(-1)
	if t, ok := g.s.tenants[g.tenant]; ok {
		t.inFlight--
	}
	g.s.dispatchLocked()
}

// Acquire blocks until the request holds a slot or fails admission.
// Rejections return *AdmissionError; cancellation returns ctx.Err().
// A ctx already done fails even when a slot is free, so a retry loop
// driven by a canceled context terminates instead of being granted
// forever through the fast path.
func (s *Scheduler) Acquire(ctx context.Context, req Request) (*Grant, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	cost := req.Cost
	if cost < 1 {
		cost = 1
	}
	class := req.Class
	if class >= numClasses {
		class = Background
	}

	s.mu.Lock()
	t := s.tenantLocked(tenant)

	// Token bucket: refill by elapsed time, reject while in debt, then
	// spend. Spending may go negative — the debt model admits any single
	// job (even one bigger than the burst) and charges the tenant's
	// future instead.
	if t.lim.Rate > 0 {
		now := s.now()
		t.tokens += now.Sub(t.lastFill).Seconds() * t.lim.Rate
		if burst := t.lim.burst(); t.tokens > burst {
			t.tokens = burst
		}
		t.lastFill = now
		if t.tokens < 0 {
			retry := clampRetry(time.Duration(-t.tokens/t.lim.Rate*float64(time.Second)) * retryFactor(s.level()))
			s.rejectRL.Inc()
			s.mu.Unlock()
			return nil, &AdmissionError{Tenant: tenant, Class: class, Reason: RateLimited, RetryAfter: retry}
		}
		t.tokens -= float64(cost)
	}

	w := &waiter{tenant: tenant, class: class, cost: cost, enq: s.now(), ready: make(chan struct{})}
	t.queued++
	s.queuedByClass[class]++
	s.fq.Push(Item{Tenant: tenant, Class: class, Cost: cost, Payload: w})
	s.admitted.Inc()
	s.dispatchLocked()
	if w.state == wGranted {
		g := w.grant
		s.mu.Unlock()
		return g, nil
	}
	// Still waiting: enforce the bounded queue (counting this waiter).
	if maxQ := t.lim.maxQueued(); t.queued > maxQ {
		s.removeLocked(w)
		retry := s.queueRetryLocked(t)
		s.rejectQF.Inc()
		s.mu.Unlock()
		return nil, &AdmissionError{Tenant: tenant, Class: class, Reason: QueueFull, RetryAfter: retry}
	}
	ttl := t.lim.queueTTL()
	s.mu.Unlock()

	var ttlCh <-chan time.Time
	if ttl > 0 {
		timer := time.NewTimer(ttl)
		defer timer.Stop()
		ttlCh = timer.C
	}
	select {
	case <-w.ready:
		return w.grant, nil
	case <-ctx.Done():
		if g := s.abandon(w, s.canceled); g != nil {
			g.Release() // the grant raced the cancellation; give it back
		}
		return nil, ctx.Err()
	case <-ttlCh:
		if g := s.abandon(w, s.shed); g != nil {
			return g, nil // granted at the deadline: use it
		}
		s.mu.Lock()
		retry := s.queueRetryLocked(s.tenants[tenant])
		s.mu.Unlock()
		return nil, &AdmissionError{Tenant: tenant, Class: class, Reason: Shed, RetryAfter: retry}
	}
}

// abandon withdraws a parked waiter, counting the outcome; if the grant
// already landed it is returned instead (the caller decides its fate).
func (s *Scheduler) abandon(w *waiter, outcome *telemetry.Counter) *Grant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.state == wGranted {
		return w.grant
	}
	s.removeLocked(w)
	outcome.Inc()
	return nil
}

// removeLocked unparks a pending waiter from every queue structure.
// The waiter never ran, so its token-bucket spend is refunded.
func (s *Scheduler) removeLocked(w *waiter) {
	if w.state != wPending {
		return
	}
	w.state = wGone
	s.fq.Remove(w.tenant, w.class, w)
	if t, ok := s.tenants[w.tenant]; ok {
		t.queued--
		if t.lim.Rate > 0 {
			t.tokens += float64(w.cost)
			if b := t.lim.burst(); t.tokens > b {
				t.tokens = b
			}
		}
	}
	s.queuedByClass[w.class]--
}

// level reads the current host-pressure level (OK when no controller
// is wired). One atomic load; safe without s.mu.
func (s *Scheduler) level() pressure.Level {
	if s.cfg.Pressure == nil {
		return pressure.OK
	}
	return s.cfg.Pressure.Level()
}

// effectiveSlots applies the degradation ladder to the slot pool: full
// at OK, 3/4 at elevated, 1/2 at critical — always at least one, so
// already-admitted work keeps draining and recovery has a pulse.
func (s *Scheduler) effectiveSlots(lvl pressure.Level) int {
	eff := s.slots
	switch lvl {
	case pressure.Elevated:
		eff = (s.slots*3 + 3) / 4
	case pressure.Critical:
		eff = (s.slots + 1) / 2
	}
	if eff < 1 {
		eff = 1
	}
	return eff
}

// Poke re-evaluates dispatch after an external capacity change — a
// pressure transition grows (or shrinks) the effective slot pool and
// resumes a paused class without waiting for the next Release.
func (s *Scheduler) Poke() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dispatchLocked()
}

// dispatchLocked hands free slots to the fair queue's best eligible
// waiters, keeping in-flight grants within the pressure-degraded
// effective pool. Grants already held above a freshly shrunk pool are
// never revoked — the pool tightens as they release.
func (s *Scheduler) dispatchLocked() {
	lvl := s.level()
	eff := s.effectiveSlots(lvl)
	for s.slots-s.free < eff {
		it, ok := s.fq.Pop(func(it Item) Decision {
			w := it.Payload.(*waiter)
			if w.state != wPending {
				return Drop // defensive: removed waiters should be gone already
			}
			if lvl >= pressure.Critical && it.Class == Background {
				// Best-effort work sits out a critical episode entirely.
				s.bgDeferred.Inc()
				return SkipClass
			}
			t := s.tenants[it.Tenant]
			if t.lim.MaxInFlight > 0 && t.inFlight >= t.lim.MaxInFlight {
				return SkipTenant
			}
			return Take
		})
		if !ok {
			return
		}
		w := it.Payload.(*waiter)
		t := s.tenants[w.tenant]
		s.free--
		t.inFlight++
		t.queued--
		s.queuedByClass[w.class]--
		w.state = wGranted
		wait := s.now().Sub(w.enq).Seconds()
		s.waitAll.Observe(wait)
		s.waitByClass[w.class].Observe(wait)
		s.granted.Inc()
		s.active.Add(1)
		w.grant = &Grant{s: s, tenant: w.tenant, class: w.class, cost: w.cost, start: s.now()}
		close(w.ready)
	}
}

// queueRetryLocked estimates when a rejected request could plausibly be
// admitted: the tenant's queue depth times the mean service time,
// divided by total capacity — the "honest Retry-After" the HTTP layer
// advertises.
func (s *Scheduler) queueRetryLocked(t *tenantState) time.Duration {
	svc := s.ewmaService
	if svc <= 0 {
		svc = 1
	}
	depth := 1
	if t != nil && t.queued > 0 {
		depth = t.queued
	}
	est := time.Duration(float64(depth) * svc / float64(s.slots) * float64(time.Second))
	return clampRetry(est * retryFactor(s.level()))
}

// retryFactor stretches advertised retry hints under pressure so the
// retry herd spreads out while the host recovers.
func retryFactor(lvl pressure.Level) time.Duration {
	switch lvl {
	case pressure.Elevated:
		return 2
	case pressure.Critical:
		return 4
	}
	return 1
}

func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}
