package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x.total")
	b := r.Counter("x.total")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(2)
	b.Inc()
	if got := r.CounterValue("x.total"); got != 3 {
		t.Fatalf("value %d, want 3", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Fatalf("absent counter value %d", got)
	}
}

func TestNameCollisionAcrossTypesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-type collision")
		}
	}()
	r.Gauge("dual")
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(-0.5)
	if v := g.Value(); v != 1.0 {
		t.Fatalf("gauge %v", v)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 fast observations around 1ms, 10 slow around 1s: p50 must be
	// near 1ms, p99 near 1s (within the 2x log-bucket resolution).
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Sum < 10.08 || s.Sum > 10.1 {
		t.Fatalf("sum %v", s.Sum)
	}
	if s.Max != 1.0 {
		t.Fatalf("max %v", s.Max)
	}
	if s.P50 < 0.0005 || s.P50 > 0.002 {
		t.Fatalf("p50 %v, want ~1ms", s.P50)
	}
	if s.P99 < 0.5 || s.P99 > 2 {
		t.Fatalf("p99 %v, want ~1s", s.P99)
	}
	if q := h.Quantile(0); q > s.P50 {
		t.Fatalf("q0 %v above p50 %v", q, s.P50)
	}
}

func TestHistogramDegenerateObservations(t *testing.T) {
	h := NewRegistry().Histogram("h")
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.P99 != 0 {
		t.Fatalf("p99 %v for all-zero observations", s.P99)
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewRegistry().Histogram("h")
	h.Observe(1e-300) // below bucket range: clamps to bucket 0
	h.Observe(1e300)  // above bucket range: clamps to the top bucket
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	if q := h.Quantile(1); q <= 0 || math.IsInf(q, 0) {
		t.Fatalf("top quantile %v", q)
	}
}

// TestRateGaugeFixedWindow pins the clock and checks the rate reflects
// the trailing window, not the read cadence.
func TestRateGaugeFixedWindow(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	g := r.RateGauge("eps", 10*time.Second)

	g.Add(1000)
	now = now.Add(2 * time.Second)
	if rate := g.Rate(); math.Abs(rate-500) > 1 {
		t.Fatalf("rate %v, want ~500 (1000 units / 2s)", rate)
	}
	// A second immediate read must agree — the window is fixed, so
	// reading is idempotent (this is the regression the server's old
	// delta-since-last-read gauge failed).
	if r1, r2 := g.Rate(), g.Rate(); r1 != r2 {
		t.Fatalf("back-to-back reads diverge: %v vs %v", r1, r2)
	}

	// 10 more seconds at 100/s: the old burst ages out of the window.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		g.Add(100)
		g.Rate() // lay down samples as a scraper would
	}
	rate := g.Rate()
	if math.Abs(rate-100) > 20 {
		t.Fatalf("steady-state rate %v, want ~100", rate)
	}
	if g.Total() != 2000 {
		t.Fatalf("total %d", g.Total())
	}
}

// TestRateGaugeConcurrentReaders is the regression test for the
// scrape-coupled rate bug: many concurrent readers while a writer adds
// must never observe a negative or wildly inflated rate, because no
// reader resets another's baseline.
func TestRateGaugeConcurrentReaders(t *testing.T) {
	r := NewRegistry()
	g := r.RateGauge("eps", 100*time.Millisecond)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.Add(10)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan float64, 64)
	for i := 0; i < 8; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 50; j++ {
				if rate := g.Rate(); rate < 0 {
					select {
					case errs <- rate:
					default:
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	select {
	case bad := <-errs:
		t.Fatalf("observed negative rate %v under concurrent scrapes", bad)
	default:
	}
}

func TestStageSpans(t *testing.T) {
	r := NewRegistry()
	st := r.Stage("core.scope_draw")
	st.Observe(2*time.Second, 100)
	st.Observe(1*time.Second, 50)
	sp := st.Span()
	sp.End(7)
	s := st.Snapshot()
	if s.Calls != 3 || s.Items != 157 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Seconds < 3 {
		t.Fatalf("seconds %v", s.Seconds)
	}
	if want := float64(s.Items) / s.Seconds; math.Abs(s.ItemsPerSec-want) > 1e-9 {
		t.Fatalf("items/sec %v, want %v", s.ItemsPerSec, want)
	}
	if got := r.StageSnapshot("core.scope_draw"); got.Calls != s.Calls || got.Items != s.Items {
		t.Fatalf("registry snapshot %+v, stage snapshot %+v", got, s)
	}
	if r.StageSnapshot("missing").Calls != 0 {
		t.Fatal("missing stage should snapshot zero")
	}
}

// TestConcurrentMixedUse hammers every metric kind from many
// goroutines; run under -race this is the package's thread-safety
// proof.
func TestConcurrentMixedUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			g := r.Gauge("g")
			rg := r.RateGauge("rg", time.Second)
			st := r.Stage("s")
			for j := 0; j < 500; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-6)
				g.Add(1)
				rg.Add(1)
				st.Observe(time.Microsecond, 1)
				if j%100 == 0 {
					h.Snapshot()
					rg.Rate()
					var b strings.Builder
					r.WriteJSON(&b)
					r.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	if r.CounterValue("c") != 4000 {
		t.Fatalf("counter %d", r.CounterValue("c"))
	}
	if r.Histogram("h").Count() != 4000 {
		t.Fatalf("hist count %d", r.Histogram("h").Count())
	}
	if s := r.Stage("s").Snapshot(); s.Calls != 4000 || s.Items != 4000 {
		t.Fatalf("stage %+v", s)
	}
}
