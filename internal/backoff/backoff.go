// Package backoff provides capped exponential backoff with jitter for
// retry loops: a distributed worker redialing its master, a client told
// to come back later by a loaded server. The delay sequence is the
// classic Base·2^attempt capped at Max, with a uniformly
// random fraction (Jitter) subtracted so a fleet of retriers that
// failed together does not retry together (the "thundering herd").
package backoff

import (
	"math"
	"math/rand"
	"time"
)

// Policy describes a backoff schedule. The zero value takes the
// documented defaults, so `backoff.Policy{}.Delay(n)` is usable as-is.
type Policy struct {
	// Base is the delay before the first retry (0 = 100ms).
	Base time.Duration
	// Max caps every delay (0 = 5s).
	Max time.Duration
	// Jitter is the fraction of each delay that is randomized: the
	// returned delay is uniform in [d·(1−Jitter), d]. 0 disables
	// jitter; values outside [0, 1] are clamped.
	Jitter float64

	// Rand overrides the jitter source (nil = math/rand's global
	// source); tests inject a deterministic one.
	Rand func() float64
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// Delay returns the wait before retry number `attempt` (0-based): Base
// for attempt 0, doubling each attempt, capped at Max,
// with Jitter applied last. Negative attempts are treated as 0.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 0 {
		attempt = 0
	}
	// Closed form rather than a multiply loop: Delay(math.MaxInt) must
	// return instantly. Pow overflows to +Inf for huge attempts, which
	// the Max clamp absorbs.
	d := float64(p.Base) * math.Pow(2, float64(attempt))
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		d -= d * p.Jitter * p.Rand()
	}
	return time.Duration(d)
}

// NextDelay returns the deterministic delay before retry `attempt`:
// Delay's exact schedule with Jitter ignored. Use it where the delay is
// advertised rather than slept — a Retry-After header — so the number a
// client reads and the wait the retry loop performs come from the same
// schedule and cannot drift (the jittered Delay is always ≤ NextDelay).
func (p Policy) NextDelay(attempt int) time.Duration {
	p = p.withDefaults()
	p.Jitter = 0
	return p.Delay(attempt)
}

// Sleep blocks for Delay(attempt), returning early (false) when stop is
// closed. A nil stop never fires. It returns true after a full sleep.
func (p Policy) Sleep(attempt int, stop <-chan struct{}) bool {
	t := time.NewTimer(p.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
