// Package telemetry is the generator's observability backbone: an
// instance-local registry of named counters, gauges, bounded
// histograms with quantile snapshots, fixed-window rate gauges, and a
// lightweight stage tracer (per-stage wall time and item counts).
//
// Nothing is global. Every Registry is self-contained, so tests,
// embedded servers and multi-server processes never collide — the same
// design rule internal/server's original expvar wiring followed, now
// shared by every layer (core generation, the distributed runtime, the
// HTTP service and the bench harness).
//
// A Registry exposes itself two ways (expose.go): as a flat
// expvar-style JSON object, and as Prometheus text format. Metric
// names are dotted paths ("core.sink.edges_total"); the Prometheus
// view rewrites them to underscored series names.
//
// The hot-path cost is one atomic add per update. Snapshot reads are
// lock-free for counters and gauges and mildly racy (per-bucket
// atomic) for histograms, which is the standard trade for not stalling
// generators mid-scope.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds one process component's metrics. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any // *Counter | *Gauge | funcGauge | *Histogram | *RateGauge | *Stage | funcAny
	names   []string       // registration order

	// now is the clock; tests substitute it to pin rate windows.
	now func() time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any), now: time.Now}
}

// SetClock substitutes the registry's clock (affects rate gauges
// created afterwards). Tests only.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}

// register stores m under name, or returns the existing metric if the
// name is taken and of the same type (get-or-create semantics, so two
// subsystems may share a counter by name). A name collision across
// types panics: it is a programming error, caught in tests.
func register[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.metrics[name]; ok {
		t, ok := got.(T)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q registered as %T, requested as %T", name, got, *new(T)))
		}
		return t
	}
	m := mk()
	r.metrics[name] = m
	r.names = append(r.names, name)
	return m
}

// get returns the metric registered under name, or nil.
func (r *Registry) get(name string) any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.metrics[name]
}

// ---------------------------------------------------------------- Counter

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, func() *Counter { return new(Counter) })
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterValue returns the named counter's value (0 when absent) —
// the assertion helper chaos tests use.
func (r *Registry) CounterValue(name string) int64 {
	if c, ok := r.get(name).(*Counter); ok {
		return c.Value()
	}
	return 0
}

// ---------------------------------------------------------------- Gauge

// Gauge is a settable float64 (stored as bits, so Set/Add are atomic).
type Gauge struct{ bits atomic.Uint64 }

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, name, func() *Gauge { return new(Gauge) })
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeValue returns the named gauge's current value — plain or
// func-backed — or 0 when absent. The assertion helper consumer tests
// use to read the public metric surface without knowing which flavor
// a subsystem registered.
func (r *Registry) GaugeValue(name string) float64 {
	switch g := r.get(name).(type) {
	case *Gauge:
		return g.Value()
	case funcGauge:
		return g()
	}
	return 0
}

// funcGauge is a read-time computed numeric gauge.
type funcGauge func() float64

// GaugeFunc registers a gauge computed at read time (uptime, queue
// depths). Re-registering a name replaces nothing: the first function
// wins, matching get-or-create counters.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	register(r, name, func() funcGauge { return funcGauge(fn) })
}

// funcAny is a read-time computed JSON value (maps, structs). It
// appears in the JSON exposition verbatim and is skipped by the
// Prometheus view, which has no shape for it.
type funcAny func() any

// Func registers an arbitrary read-time JSON value (e.g. the server's
// per-job progress map).
func (r *Registry) Func(name string, fn func() any) {
	register(r, name, func() funcAny { return funcAny(fn) })
}

// ---------------------------------------------------------------- Histogram

// histBuckets is the fixed bucket count of every histogram: one bucket
// per power of two from 2^histMinExp up, clamping outliers into the
// edge buckets. Bounded by construction — recording never allocates.
const (
	histBuckets = 130
	histMinExp  = -64 // bucket 0 holds values < 2^-63 (incl. 0)
)

// Histogram is a bounded log-scale histogram of non-negative float64
// observations with quantile snapshots. Memory is fixed (~1 KiB)
// regardless of observation count, the property that lets a worker
// record per-scope timings for a trillion-edge run.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
	max     atomic.Uint64 // float64 bits
	buckets [histBuckets]atomic.Int64
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return register(r, name, func() *Histogram { return new(Histogram) })
}

// bucketOf maps v to its bucket index.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	e := math.Ilogb(v) // floor(log2 v)
	i := e - histMinExp + 1
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i <= 0 {
		return math.Ldexp(1, histMinExp)
	}
	return math.Ldexp(1, histMinExp+i)
}

// Observe records one value. Negative and NaN observations count into
// the lowest bucket rather than corrupting state.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	h.buckets[bucketOf(v)].Add(1)
	if v > 0 && !math.IsNaN(v) {
		for {
			old := h.sum.Load()
			if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
				break
			}
		}
		for {
			old := h.max.Load()
			if v <= math.Float64frombits(old) {
				break
			}
			if h.max.CompareAndSwap(old, math.Float64bits(v)) {
				break
			}
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistSnapshot is a point-in-time histogram summary.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. Concurrent observations may or
// may not be included; the summary is internally consistent enough for
// monitoring (counts are never negative, quantiles come from one pass).
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sum.Load()),
		Max:   math.Float64frombits(h.max.Load()),
	}
	if total == 0 {
		return s
	}
	s.P50 = quantile(&counts, total, 0.50)
	s.P90 = quantile(&counts, total, 0.90)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets; the
// estimate is the geometric midpoint of the bucket holding the rank,
// so it is within 2x of the true value — plenty for stage timings.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	return quantile(&counts, total, q)
}

func quantile(counts *[histBuckets]int64, total int64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range counts {
		seen += counts[i]
		if seen >= rank {
			if i == 0 {
				return 0
			}
			// Geometric midpoint of [2^(e), 2^(e+1)).
			return bucketUpper(i) / math.Sqrt2
		}
	}
	return 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// ---------------------------------------------------------------- RateGauge

// DefaultRateWindow is the sliding window RateGauge reads average
// over when the registry default is requested.
const DefaultRateWindow = 10 * time.Second

// RateGauge measures the per-second rate of a monotonically increasing
// total over a fixed sliding window. Unlike a "delta since the last
// read" gauge, the window is independent of scrape cadence: concurrent
// readers observe the same samples and therefore the same rate, and a
// fast scraper cannot starve a slow one of signal. This replaces the
// internal/server rate whose state was reset by every reader.
type RateGauge struct {
	total atomic.Int64

	mu     sync.Mutex
	window time.Duration
	step   time.Duration
	// samples is ascending in time and pruned to the window; it is
	// seeded with a zero sample at creation, so the baseline before the
	// first full window is "nothing had been counted yet" rather than
	// whatever total the first reader happened to observe.
	samples []rateSample
	now     func() time.Time
}

type rateSample struct {
	t time.Time
	v int64
}

// RateGauge returns the named rate gauge, creating it with the given
// window if needed (0 = DefaultRateWindow). The sampling step is
// window/10, so the reported rate moves smoothly as traffic changes.
func (r *Registry) RateGauge(name string, window time.Duration) *RateGauge {
	return register(r, name, func() *RateGauge {
		if window <= 0 {
			window = DefaultRateWindow
		}
		return &RateGauge{
			window:  window,
			step:    window / 10,
			samples: []rateSample{{t: r.now()}},
			now:     r.now,
		}
	})
}

// Add feeds n units into the total.
func (g *RateGauge) Add(n int64) { g.total.Add(n) }

// Total returns the all-time total.
func (g *RateGauge) Total() int64 { return g.total.Load() }

// Rate returns the average units/sec over (at most) the trailing
// window. Reading is side-effect-free with respect to other readers:
// samples are laid down on the fixed step grid, so back-to-back reads
// — from one goroutine or many — agree.
func (g *RateGauge) Rate() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	total := g.total.Load()

	// Lay down a sample if the last one is a full step old. Time-gated,
	// so a burst of concurrent readers appends at most one.
	if now.Sub(g.samples[len(g.samples)-1].t) >= g.step {
		g.samples = append(g.samples, rateSample{t: now, v: total})
	}
	// Prune to the window, always keeping one sample at or beyond the
	// window edge as the baseline.
	cut := 0
	for cut < len(g.samples)-1 && now.Sub(g.samples[cut+1].t) >= g.window {
		cut++
	}
	if cut > 0 {
		g.samples = append(g.samples[:0], g.samples[cut:]...)
	}

	base := g.samples[0]
	dt := now.Sub(base.t).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(total-base.v) / dt
}

// ---------------------------------------------------------------- Stage

// Stage aggregates one pipeline stage: how many times it ran, how many
// items it processed, and its total wall time. Workers typically
// accumulate locally and call Observe once per range, so the hot loop
// pays nothing.
type Stage struct {
	calls atomic.Int64
	items atomic.Int64
	ns    atomic.Int64
}

// Stage returns the named stage, creating it if needed.
func (r *Registry) Stage(name string) *Stage {
	return register(r, name, func() *Stage { return new(Stage) })
}

// Observe records one completed stage execution.
func (s *Stage) Observe(d time.Duration, items int64) {
	s.calls.Add(1)
	s.items.Add(items)
	s.ns.Add(int64(d))
}

// Span starts a timed span of the stage; End records it.
func (s *Stage) Span() *Span { return &Span{stage: s, start: time.Now()} }

// Span is one in-flight stage execution.
type Span struct {
	stage *Stage
	start time.Time
}

// End completes the span, crediting the stage with the elapsed wall
// time and the given item count.
func (sp *Span) End(items int64) { sp.stage.Observe(time.Since(sp.start), items) }

// StageSnapshot is a point-in-time stage summary.
type StageSnapshot struct {
	Calls   int64   `json:"calls"`
	Items   int64   `json:"items"`
	Seconds float64 `json:"seconds"`
	// ItemsPerSec is Items/Seconds (0 when no time has been recorded):
	// the per-stage throughput number the paper's evaluation plots.
	ItemsPerSec float64 `json:"items_per_sec"`
}

// Snapshot summarizes the stage.
func (s *Stage) Snapshot() StageSnapshot {
	snap := StageSnapshot{
		Calls:   s.calls.Load(),
		Items:   s.items.Load(),
		Seconds: time.Duration(s.ns.Load()).Seconds(),
	}
	if snap.Seconds > 0 {
		snap.ItemsPerSec = float64(snap.Items) / snap.Seconds
	}
	return snap
}

// Seconds returns the stage's accumulated wall time in seconds.
func (s *Stage) Seconds() float64 { return time.Duration(s.ns.Load()).Seconds() }

// Items returns the stage's accumulated item count.
func (s *Stage) Items() int64 { return s.items.Load() }

// StageSnapshot returns the named stage's summary (zero when absent).
func (r *Registry) StageSnapshot(name string) StageSnapshot {
	if s, ok := r.get(name).(*Stage); ok {
		return s.Snapshot()
	}
	return StageSnapshot{}
}

// sortedNames returns the registered names sorted lexically (the
// exposition order, matching expvar.Map's sorted output).
func (r *Registry) sortedNames() []string {
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}
