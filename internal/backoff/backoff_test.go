package backoff

import (
	"math"
	"testing"
	"time"
)

// TestDelayGrowsAndCaps: the no-jitter schedule doubles from Base and
// saturates at Max.
func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 1 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second,
		1 * time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	if got := p.Delay(-3); got != 100*time.Millisecond {
		t.Fatalf("Delay(-3) = %v, want Base", got)
	}
}

// TestJitterBounds: with Jitter j, every delay lands in [d·(1−j), d].
func TestJitterBounds(t *testing.T) {
	p := Policy{Base: time.Second, Max: time.Second, Jitter: 0.5}
	for i := 0; i < 200; i++ {
		d := p.Delay(3)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("jittered delay %v outside [500ms, 1s]", d)
		}
	}
	// A pinned source makes the jitter exact.
	p.Rand = func() float64 { return 1 }
	if d := p.Delay(0); d != 500*time.Millisecond {
		t.Fatalf("fully jittered delay %v, want 500ms", d)
	}
}

// TestZeroValueDefaults: the zero Policy is usable.
func TestZeroValueDefaults(t *testing.T) {
	var p Policy
	if d := p.Delay(0); d != 100*time.Millisecond {
		t.Fatalf("zero-value Delay(0) = %v, want 100ms", d)
	}
	if d := p.Delay(1000); d != 5*time.Second {
		t.Fatalf("zero-value Delay(1000) = %v, want 5s cap", d)
	}
}

// TestNextDelayMatchesDelaySchedule: NextDelay is exactly the no-jitter
// Delay schedule, and an upper bound on every jittered Delay — the
// property that keeps an advertised Retry-After honest.
func TestNextDelayMatchesDelaySchedule(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 1 * time.Second, Jitter: 0.7}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second,
		1 * time.Second,
	}
	for i, w := range want {
		if got := p.NextDelay(i); got != w {
			t.Fatalf("NextDelay(%d) = %v, want %v", i, got, w)
		}
		for trial := 0; trial < 50; trial++ {
			if d := p.Delay(i); d > p.NextDelay(i) {
				t.Fatalf("Delay(%d) = %v exceeds NextDelay %v", i, d, p.NextDelay(i))
			}
		}
	}
	if got := p.NextDelay(-1); got != 100*time.Millisecond {
		t.Fatalf("NextDelay(-1) = %v, want Base", got)
	}
	var zero Policy
	if got := zero.NextDelay(2); got != 400*time.Millisecond {
		t.Fatalf("zero-value NextDelay(2) = %v, want 400ms", got)
	}
}

// TestExtremeAttempts: the schedule is O(1) in the attempt number, so
// a pathological retry counter — an int that kept incrementing for
// days — returns instantly instead of spinning.
func TestExtremeAttempts(t *testing.T) {
	huge := []int{1 << 20, 1 << 40, math.MaxInt}
	grow := Policy{Base: 100 * time.Millisecond, Max: time.Second}
	for _, n := range huge {
		if got := grow.NextDelay(n); got != time.Second {
			t.Fatalf("NextDelay(%d) = %v, want Max", n, got)
		}
		if got := grow.Delay(n); got != time.Second {
			t.Fatalf("Delay(%d) = %v, want Max", n, got)
		}
	}
}

// TestSleepStops: Sleep returns early when stop closes.
func TestSleepStops(t *testing.T) {
	p := Policy{Base: time.Minute, Max: time.Minute}
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if p.Sleep(0, stop) {
		t.Fatal("Sleep reported a full sleep despite stop")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Sleep did not return promptly on stop")
	}
	quick := Policy{Base: time.Millisecond, Max: time.Millisecond}
	if !quick.Sleep(0, nil) {
		t.Fatal("nil stop interrupted the sleep")
	}
}
