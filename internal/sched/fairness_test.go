package sched

import (
	"context"
	"sync"
	"testing"
	"time"
)

// dispatchFairness measures the scheduler's share-out from a
// single-dispatcher sequence rather than racing goroutines against a
// deadline: every tenant keeps a standing backlog of parked Acquires,
// and the caller's goroutine alone decides when a slot frees — it takes
// one grant, restores that tenant's backlog, and only then releases —
// so every dispatch sees the same queue whatever the machine load, and
// the totals are a function of the scheduler, not of the goroutine
// scheduler. It returns the cost granted per tenant over `grants`
// dispatches; the parked waiters are torn down when the test ends.
func dispatchFairness(t *testing.T, s *Scheduler, tenants []string, backlog int, cost int64, grants int) map[string]int64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() { cancel(); wg.Wait() })

	granted := make(chan *Grant)
	queued := func(tenant string) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		if ts, ok := s.tenants[tenant]; ok {
			return ts.queued
		}
		return 0
	}
	// park adds one waiter to tenant's queue and returns once it is
	// queued; its grant, when dispatched, arrives on granted.
	park := func(tenant string) {
		want := queued(tenant) + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := s.Acquire(ctx, Request{Tenant: tenant, Class: Batch, Cost: cost})
			if err != nil {
				return // canceled at teardown
			}
			select {
			case granted <- g:
			case <-ctx.Done():
				g.Release()
			}
		}()
		waitFor(t, func() bool { return queued(tenant) == want })
	}

	// Hold every slot while the backlogs build, so the first dispatch
	// already chooses between saturated tenants.
	var plugs []*Grant
	for i := 0; i < s.Slots(); i++ {
		g, err := s.Acquire(ctx, Request{Tenant: "plug", Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		plugs = append(plugs, g)
	}
	for i := 0; i < backlog; i++ {
		for _, tn := range tenants {
			park(tn)
		}
	}
	for _, g := range plugs {
		g.Release()
	}

	got := map[string]int64{}
	for i := 0; i < grants; i++ {
		g := <-granted
		got[g.Tenant()] += cost
		park(g.Tenant())
		g.Release()
	}
	return got
}

// TestSchedulerFairnessThreeTenants: three tenants at weights 1:2:4
// with identical standing backlogs; granted-work ratios must converge
// on the weights.
func TestSchedulerFairnessThreeTenants(t *testing.T) {
	s := New(Config{
		Slots: 2,
		Tenants: map[string]Limits{
			"w1": {Weight: 1, QueueTTL: -1},
			"w2": {Weight: 2, QueueTTL: -1},
			"w4": {Weight: 4, QueueTTL: -1},
		},
	})
	got := dispatchFairness(t, s, []string{"w1", "w2", "w4"}, 4, 100, 700)
	base := float64(got["w1"])
	if base == 0 {
		t.Fatal("weight-1 tenant starved")
	}
	for tn, want := range map[string]float64{"w2": 2, "w4": 4} {
		ratio := float64(got[tn]) / base
		if ratio < want*0.80 || ratio > want*1.25 {
			t.Errorf("completed-work ratio %s/w1 = %.2f, want %.1f ±~20%% (totals %v)", tn, ratio, want, got)
		}
	}
}

// TestSchedulerFairnessThreeToOne is the acceptance-criteria check: two
// tenants at weights 3:1, identical saturating workloads, completed
// edge counts converge to 3:1 within ±10%.
func TestSchedulerFairnessThreeToOne(t *testing.T) {
	s := New(Config{
		Slots: 2,
		Tenants: map[string]Limits{
			"gold":   {Weight: 3, QueueTTL: -1},
			"bronze": {Weight: 1, QueueTTL: -1},
		},
	})
	const grants = 400
	got := dispatchFairness(t, s, []string{"gold", "bronze"}, 4, 100, grants)
	if got["bronze"] == 0 {
		t.Fatal("bronze tenant starved")
	}
	ratio := float64(got["gold"]) / float64(got["bronze"])
	if ratio < 3*0.90 || ratio > 3*1.10 {
		t.Errorf("completed-edges ratio gold/bronze = %.3f, want 3.0 ±10%% (totals %v)", ratio, got)
	}

	// Every grant is dispatched from the queue, an immediate one
	// included, and each dispatch observes one wait: the plugs, the
	// grants received above, and the Slots more that the last releases
	// dispatched (Release dispatches under the lock) and nobody took.
	tel := s.Telemetry()
	dispatched := int64(s.Slots() + grants + s.Slots())
	if n := tel.Counter(MetricGranted).Value(); n != dispatched {
		t.Fatalf("%s = %d, want %d", MetricGranted, n, dispatched)
	}
	if n := tel.Histogram(MetricWaitSeconds).Count(); n != dispatched {
		t.Errorf("%s holds %d observations, want one per dispatch (%d)", MetricWaitSeconds, n, dispatched)
	}
	var byClass int64
	for c := Class(0); c < numClasses; c++ {
		byClass += tel.Histogram(MetricWaitSeconds + "." + c.String()).Count()
	}
	if byClass != dispatched {
		t.Errorf("per-class wait histograms sum to %d, want %d", byClass, dispatched)
	}
}

// TestSchedulerBackgroundNotStarved: under constant interactive load a
// single background job must still be dispatched — classes share by
// weight, not strict priority.
func TestSchedulerBackgroundNotStarved(t *testing.T) {
	s := New(Config{Slots: 1, Defaults: Limits{QueueTTL: -1}})
	ctx, cancel := context.WithCancel(context.Background())

	// Four interactive submitters keep the queue permanently non-empty.
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g, err := s.Acquire(ctx, Request{Tenant: "a", Class: Interactive, Cost: 1})
				if err != nil {
					return
				}
				g.Release()
			}
		}()
	}

	// Wait until the interactive load is demonstrably saturating.
	waitFor(t, func() bool { return s.Telemetry().CounterValue(MetricGranted) > 100 })

	gotCh := make(chan error, 1)
	go func() {
		g, err := s.Acquire(ctx, Request{Tenant: "a", Class: Background, Cost: 1})
		if err == nil {
			g.Release()
		}
		gotCh <- err
	}()
	select {
	case err := <-gotCh:
		if err != nil {
			t.Fatalf("background Acquire: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("background job starved under constant interactive load")
	}
}
