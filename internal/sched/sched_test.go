package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually advanced clock for token-bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func mustAcquire(t *testing.T, s *Scheduler, req Request) *Grant {
	t.Helper()
	g, err := s.Acquire(context.Background(), req)
	if err != nil {
		t.Fatalf("Acquire(%+v): %v", req, err)
	}
	return g
}

func TestSchedulerImmediateGrantAndRelease(t *testing.T) {
	s := New(Config{Slots: 2})
	g1 := mustAcquire(t, s, Request{Tenant: "a", Class: Interactive, Cost: 5})
	g2 := mustAcquire(t, s, Request{Tenant: "b"})
	if g1.Tenant() != "a" || g2.Tenant() != "b" {
		t.Fatalf("grant tenants = %q, %q", g1.Tenant(), g2.Tenant())
	}
	g1.Release()
	g1.Release() // idempotent
	g2.Release()
	tel := s.Telemetry()
	if got := tel.CounterValue(MetricGranted); got != 2 {
		t.Fatalf("granted_total = %d, want 2", got)
	}
}

// TestSchedulerCanceledContextNeverGrants: a done ctx must fail even
// when a slot is free. Without the entry check, a submit loop driven
// by a canceled context is granted forever through the fast path and
// never terminates.
func TestSchedulerCanceledContextNeverGrants(t *testing.T) {
	s := New(Config{Slots: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if g, err := s.Acquire(ctx, Request{Tenant: "a"}); err == nil {
		g.Release()
		t.Fatal("canceled ctx was granted a free slot")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Telemetry().CounterValue(MetricGranted); got != 0 {
		t.Fatalf("granted_total = %d, want 0", got)
	}
}

func TestSchedulerQueueFullRejects(t *testing.T) {
	s := New(Config{
		Slots:   1,
		Tenants: map[string]Limits{"a": {MaxQueued: 1, QueueTTL: -1}},
	})
	g := mustAcquire(t, s, Request{Tenant: "a"})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, Request{Tenant: "a"})
		parked <- err
	}()
	// Wait until the second request occupies the single queue slot.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.tenants["a"].queued == 1
	})

	_, err := s.Acquire(context.Background(), Request{Tenant: "a"})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != QueueFull {
		t.Fatalf("third Acquire: err = %v, want QueueFull", err)
	}
	if adm.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", adm.RetryAfter)
	}
	if got := s.Telemetry().CounterValue(MetricRejectedQueueFull); got != 1 {
		t.Fatalf("rejected_queue_full_total = %d, want 1", got)
	}

	cancel()
	if err := <-parked; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked Acquire after cancel: %v, want context.Canceled", err)
	}
	if got := s.Telemetry().CounterValue(MetricCanceled); got != 1 {
		t.Fatalf("canceled_total = %d, want 1", got)
	}
	g.Release()
}

func TestSchedulerNoQueueRejectsImmediately(t *testing.T) {
	s := New(Config{
		Slots:   1,
		Tenants: map[string]Limits{"a": {MaxQueued: NoQueue}},
	})
	g := mustAcquire(t, s, Request{Tenant: "a"})
	_, err := s.Acquire(context.Background(), Request{Tenant: "a"})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != QueueFull {
		t.Fatalf("err = %v, want immediate QueueFull with queueing disabled", err)
	}
	g.Release()
	g2 := mustAcquire(t, s, Request{Tenant: "a"})
	g2.Release()
}

func TestSchedulerRateLimitDebt(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := New(Config{
		Slots:   8,
		Tenants: map[string]Limits{"a": {Rate: 10, Burst: 10}},
	})
	s.now = clk.now
	// Burst admits a job far larger than the bucket, driving it into debt.
	g := mustAcquire(t, s, Request{Tenant: "a", Cost: 50})
	g.Release()

	_, err := s.Acquire(context.Background(), Request{Tenant: "a", Cost: 1})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != RateLimited {
		t.Fatalf("err = %v, want RateLimited while in debt", err)
	}
	// Debt is 40 tokens at 10/sec → honest Retry-After ≈ 4s.
	if adm.RetryAfter < 3*time.Second || adm.RetryAfter > 5*time.Second {
		t.Fatalf("RetryAfter = %v, want ≈4s", adm.RetryAfter)
	}
	if got := s.Telemetry().CounterValue(MetricRejectedRateLimited); got != 1 {
		t.Fatalf("rejected_rate_limited_total = %d, want 1", got)
	}

	// After the debt drains the tenant is admitted again.
	clk.advance(5 * time.Second)
	g = mustAcquire(t, s, Request{Tenant: "a", Cost: 1})
	g.Release()
}

func TestSchedulerRejectionRefundsTokens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := New(Config{
		Slots:   1,
		Tenants: map[string]Limits{"a": {Rate: 1, Burst: 10, MaxQueued: NoQueue}},
	})
	s.now = clk.now
	g := mustAcquire(t, s, Request{Tenant: "a", Cost: 5}) // tokens 10 → 5
	// Queue-full rejections must refund their spend: without the refund,
	// three rejected retries would empty the bucket.
	for i := 0; i < 3; i++ {
		if _, err := s.Acquire(context.Background(), Request{Tenant: "a", Cost: 5}); err == nil {
			t.Fatal("Acquire succeeded with the only slot held and queueing off")
		}
	}
	g.Release()
	// Still 5 tokens: the retry is admitted by the bucket.
	g = mustAcquire(t, s, Request{Tenant: "a", Cost: 5})
	g.Release()
}

func TestSchedulerMaxInFlightQuota(t *testing.T) {
	s := New(Config{
		Slots:   4,
		Tenants: map[string]Limits{"a": {MaxInFlight: 1}},
	})
	g1 := mustAcquire(t, s, Request{Tenant: "a"})

	granted := make(chan *Grant, 1)
	go func() {
		g, err := s.Acquire(context.Background(), Request{Tenant: "a"})
		if err != nil {
			t.Error(err)
		}
		granted <- g
	}()
	select {
	case <-granted:
		t.Fatal("second Acquire granted past MaxInFlight=1")
	case <-time.After(50 * time.Millisecond):
	}
	// Other tenants are unaffected by a's quota.
	gb := mustAcquire(t, s, Request{Tenant: "b"})
	gb.Release()

	g1.Release()
	select {
	case g2 := <-granted:
		g2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("quota'd waiter not granted after Release")
	}
}

func TestSchedulerTTLShed(t *testing.T) {
	s := New(Config{
		Slots:   1,
		Tenants: map[string]Limits{"a": {QueueTTL: 20 * time.Millisecond}},
	})
	g := mustAcquire(t, s, Request{Tenant: "a"})
	defer g.Release()

	start := time.Now()
	_, err := s.Acquire(context.Background(), Request{Tenant: "a"})
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != Shed {
		t.Fatalf("err = %v, want Shed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shed took %v, want ~20ms", elapsed)
	}
	if got := s.Telemetry().CounterValue(MetricShed); got != 1 {
		t.Fatalf("shed_total = %d, want 1", got)
	}
	// The shed waiter must be fully unparked: queue empty, depth zero.
	s.mu.Lock()
	queued, fqLen := s.tenants["a"].queued, s.fq.Len()
	s.mu.Unlock()
	if queued != 0 || fqLen != 0 {
		t.Fatalf("after shed: tenant queued=%d fq len=%d, want 0/0", queued, fqLen)
	}
}

func TestSchedulerMetricsExposition(t *testing.T) {
	tel := telemetry.NewRegistry()
	s := New(Config{Slots: 1, Telemetry: tel})
	g := mustAcquire(t, s, Request{Tenant: "team-a", Class: Interactive, Cost: 3})
	g.Release()

	var b strings.Builder
	if err := tel.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"trilliong_sched_granted_total 1",
		"trilliong_sched_slots_free 1",
		"trilliong_sched_queue_depth_tenant_team_a 0",
		"trilliong_sched_queue_depth_class_interactive 0",
		"trilliong_sched_wait_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func TestParseTenantSpec(t *testing.T) {
	name, lim, err := ParseTenantSpec("alice,weight=3,rate=1e6,burst=2e6,max-active=2,max-queued=8,ttl=45s")
	if err != nil {
		t.Fatal(err)
	}
	if name != "alice" {
		t.Fatalf("name = %q", name)
	}
	want := Limits{Weight: 3, Rate: 1e6, Burst: 2e6, MaxInFlight: 2, MaxQueued: 8, QueueTTL: 45 * time.Second}
	if lim != want {
		t.Fatalf("limits = %+v, want %+v", lim, want)
	}

	if name, lim, err = ParseTenantSpec("bob"); err != nil || name != "bob" || lim != (Limits{}) {
		t.Fatalf("bare name: %q %+v %v", name, lim, err)
	}

	if _, lim, err = ParseTenantSpec("c,max-queued=none"); err != nil || lim.MaxQueued != NoQueue {
		t.Fatalf("max-queued=none: %+v %v", lim, err)
	}
	if _, lim, err = ParseTenantSpec("c,max-queued=0"); err != nil || lim.MaxQueued != NoQueue {
		t.Fatalf("max-queued=0: %+v %v", lim, err)
	}
	if _, lim, err = ParseTenantSpec("c,ttl=0s"); err != nil || lim.QueueTTL >= 0 {
		t.Fatalf("ttl=0s should mean never shed: %+v %v", lim, err)
	}

	for _, bad := range []string{
		"",                      // empty name
		"has space",             // invalid name rune
		"a,weight=0",            // weight < 1
		"a,weight=x",            // not a number
		"a,rate=-1",             // negative
		"a,rate=NaN",            // not a rate: would read as unlimited
		"a,rate=Inf",            // not finite
		"a,burst=NaN",           // not a capacity
		"a,burst=+Inf",          // not finite
		"a,ttl=soon",            // unparseable duration
		"a,max-active=-2",       // negative
		"a,nonsense=1",          // unknown key
		"a,weight",              // missing =
		strings.Repeat("n", 65), // too long
	} {
		if _, _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted, want error", bad)
		}
	}
}

func TestValidTenant(t *testing.T) {
	for _, ok := range []string{"a", "team-a", "a.b_c-9", "X"} {
		if !ValidTenant(ok) {
			t.Errorf("ValidTenant(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "ü", strings.Repeat("a", 65)} {
		if ValidTenant(bad) {
			t.Errorf("ValidTenant(%q) = true", bad)
		}
	}
}
