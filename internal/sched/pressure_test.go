package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/pressure"
	"repro/internal/telemetry"
)

// calmController returns a controller that nothing samples, so tests
// own the level via Force.
func calmController() *pressure.Controller {
	return pressure.New(pressure.Config{MemBudgetBytes: -1, Telemetry: telemetry.NewRegistry()})
}

// acquireAsync runs Acquire in a goroutine and reports the result.
func acquireAsync(s *Scheduler, req Request) chan *Grant {
	ch := make(chan *Grant, 1)
	go func() {
		g, err := s.Acquire(context.Background(), req)
		if err != nil {
			ch <- nil
			return
		}
		ch <- g
	}()
	return ch
}

func mustNoGrant(t *testing.T, ch chan *Grant, msg string) {
	t.Helper()
	select {
	case g := <-ch:
		t.Fatalf("%s (got grant %v)", msg, g != nil)
	case <-time.After(50 * time.Millisecond):
	}
}

func mustGrant(t *testing.T, ch chan *Grant, msg string) *Grant {
	t.Helper()
	select {
	case g := <-ch:
		if g == nil {
			t.Fatalf("%s: acquire failed", msg)
		}
		return g
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: no grant", msg)
		return nil
	}
}

// TestPressureShrinksEffectiveSlots: at critical the pool halves; the
// shrunk pool is enforced as existing grants release, and recovery
// (via the controller's OnChange → Poke) restores it without any
// Acquire/Release event.
func TestPressureShrinksEffectiveSlots(t *testing.T) {
	ctrl := calmController()
	s := New(Config{Slots: 2, Pressure: ctrl, Telemetry: telemetry.NewRegistry()})

	if got := s.effectiveSlots(pressure.OK); got != 2 {
		t.Fatalf("eff(ok) = %d", got)
	}
	if got := s.effectiveSlots(pressure.Critical); got != 1 {
		t.Fatalf("eff(critical) = %d", got)
	}
	if got := s.Telemetry().GaugeValue(MetricSlotsEffective); got != 2 {
		t.Fatalf("slots_effective gauge = %v", got)
	}

	g1 := mustGrant(t, acquireAsync(s, Request{}), "g1")
	g2 := mustGrant(t, acquireAsync(s, Request{}), "g2")

	ctrl.Force(pressure.Critical)
	if got := s.Telemetry().GaugeValue(MetricSlotsEffective); got != 1 {
		t.Fatalf("slots_effective under critical = %v", got)
	}

	ch := acquireAsync(s, Request{})
	mustNoGrant(t, ch, "granted while pool full under critical")
	g1.Release() // one of two grants back: still at the shrunk cap of 1
	mustNoGrant(t, ch, "granted at the shrunk cap")
	g2.Release() // now below cap
	g3 := mustGrant(t, ch, "below shrunk cap")

	// Recovery: a second waiter parks against the cap, then the level
	// drop alone (no Release) must dispatch it.
	ch2 := acquireAsync(s, Request{})
	mustNoGrant(t, ch2, "granted at cap before recovery")
	ctrl.Force(pressure.OK)
	g4 := mustGrant(t, ch2, "after recovery")
	g3.Release()
	g4.Release()
}

// TestPressurePausesBackground: at critical, background waiters sit
// out while interactive/batch keep flowing; recovery resumes them.
func TestPressurePausesBackground(t *testing.T) {
	ctrl := calmController()
	reg := telemetry.NewRegistry()
	s := New(Config{Slots: 2, Pressure: ctrl, Telemetry: reg})

	ctrl.Force(pressure.Critical)
	if got := reg.GaugeValue(MetricBackgroundPaused); got != 1 {
		t.Fatalf("background_paused = %v", got)
	}
	bg := acquireAsync(s, Request{Class: Background})
	mustNoGrant(t, bg, "background granted under critical")
	// A batch request from the same tenant flows past the paused class.
	gb := mustGrant(t, acquireAsync(s, Request{Class: Batch}), "batch under critical")
	gb.Release()
	if reg.CounterValue(MetricBackgroundDeferred) == 0 {
		t.Fatal("background_deferred_total never counted")
	}
	mustNoGrant(t, bg, "background resumed while still critical")

	ctrl.Force(pressure.OK)
	if got := reg.GaugeValue(MetricBackgroundPaused); got != 0 {
		t.Fatalf("background_paused after recovery = %v", got)
	}
	g := mustGrant(t, bg, "background after recovery")
	g.Release()
}

// TestPressureStretchesRetryAfter: rejection hints grow 4x at
// critical so the retry herd spreads out.
func TestPressureStretchesRetryAfter(t *testing.T) {
	ctrl := calmController()
	s := New(Config{
		Slots:     1,
		Defaults:  Limits{MaxQueued: NoQueue},
		Pressure:  ctrl,
		Telemetry: telemetry.NewRegistry(),
	})
	g := mustGrant(t, acquireAsync(s, Request{}), "seed grant")
	defer g.Release()

	reject := func() *AdmissionError {
		t.Helper()
		_, err := s.Acquire(context.Background(), Request{})
		var adm *AdmissionError
		if !errors.As(err, &adm) || adm.Reason != QueueFull {
			t.Fatalf("err = %v", err)
		}
		return adm
	}
	base := reject().RetryAfter
	ctrl.Force(pressure.Critical)
	stretched := reject().RetryAfter
	if stretched < 4*base {
		t.Fatalf("retry after critical = %v, want >= 4x base %v", stretched, base)
	}
	ctrl.Force(pressure.OK)
	if again := reject().RetryAfter; again != base {
		t.Fatalf("retry after recovery = %v, want %v", again, base)
	}
}

// TestAdmissionErrorSubSecond: the satellite fix — sub-second hints
// render as milliseconds, not "0s".
func TestAdmissionErrorSubSecond(t *testing.T) {
	e := &AdmissionError{Tenant: "acme", Class: Batch, Reason: QueueFull, RetryAfter: 250 * time.Millisecond}
	got := e.Error()
	if !strings.Contains(got, "250ms") {
		t.Fatalf("Error() = %q, want a 250ms hint", got)
	}
	if strings.Contains(got, "0s") {
		t.Fatalf("Error() = %q still rounds to whole seconds", got)
	}
	e.RetryAfter = 1500 * time.Millisecond
	if got = e.Error(); !strings.Contains(got, "1.5s") {
		t.Fatalf("Error() = %q, want 1.5s", got)
	}
}

// TestFairQueueSkipClass: SkipClass shelves one (tenant, class) while
// the tenant's other classes stay eligible; a tenant with every class
// shelved is set aside whole, and nothing is lost.
func TestFairQueueSkipClass(t *testing.T) {
	q := NewFairQueue()
	q.Push(Item{Tenant: "a", Class: Background, Payload: "a-bg"})
	q.Push(Item{Tenant: "a", Class: Batch, Payload: "a-batch"})
	q.Push(Item{Tenant: "b", Class: Background, Payload: "b-bg"})

	if got := q.LenClass(Background); got != 2 {
		t.Fatalf("LenClass(Background) = %d", got)
	}
	if got := q.LenClass(Batch); got != 1 {
		t.Fatalf("LenClass(Batch) = %d", got)
	}

	skipBG := func(it Item) Decision {
		if it.Class == Background {
			return SkipClass
		}
		return Take
	}
	it, ok := q.Pop(skipBG)
	if !ok || it.Payload != "a-batch" {
		t.Fatalf("Pop past paused class = %v, %v", it.Payload, ok)
	}
	// Only background remains; a fully-masked queue yields nothing but
	// keeps every item.
	if it, ok = q.Pop(skipBG); ok {
		t.Fatalf("Pop returned %v with every class shelved", it.Payload)
	}
	if q.Len() != 2 || q.LenClass(Background) != 2 {
		t.Fatalf("shelved items lost: len=%d bg=%d", q.Len(), q.LenClass(Background))
	}
	// Unmasked, both drain.
	seen := map[any]bool{}
	for i := 0; i < 2; i++ {
		it, ok = q.Pop(nil)
		if !ok {
			t.Fatalf("drain pop %d failed", i)
		}
		seen[it.Payload] = true
	}
	if !seen["a-bg"] || !seen["b-bg"] {
		t.Fatalf("drained = %v", seen)
	}
	if _, ok = q.Pop(nil); ok {
		t.Fatal("queue not empty after drain")
	}
}
