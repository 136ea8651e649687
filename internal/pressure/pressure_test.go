package pressure

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/telemetry"
)

// newController returns a controller with no memory budget and a
// private registry. Real samples still read the host; tests that need
// a level arm PointSignals, whose samples replace the real ones.
func newController(reg *telemetry.Registry) *Controller {
	return New(Config{MemBudgetBytes: -1, Telemetry: reg})
}

// TestLevelString covers the wire names both ways.
func TestLevelString(t *testing.T) {
	for _, tc := range []struct {
		l Level
		s string
	}{{OK, "ok"}, {Elevated, "elevated"}, {Critical, "critical"}} {
		if tc.l.String() != tc.s {
			t.Fatalf("%d.String() = %q", tc.l, tc.l.String())
		}
		if got, ok := ParseLevel(tc.s); !ok || got != tc.l {
			t.Fatalf("ParseLevel(%q) = %v, %v", tc.s, got, ok)
		}
	}
	if got, ok := ParseLevel(""); !ok || got != OK {
		t.Fatalf("ParseLevel(\"\") = %v, %v", got, ok)
	}
	if _, ok := ParseLevel("meltdown"); ok {
		t.Fatal("ParseLevel accepted garbage")
	}
	if Level(99).String() != "invalid" {
		t.Fatal("out-of-range level has a name")
	}
}

// TestRealSample: sampling the actual host populates the gauges with
// plausible values, and the first sample's level is its classification
// (escalation takes one sample).
func TestRealSample(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newController(reg)
	sig, lvl := c.Sample()
	if want := c.classify(sig, OK); lvl != want {
		t.Fatalf("level = %v after one sample classified %v", lvl, want)
	}
	if sig.MemUsedFrac() != 0 {
		t.Fatalf("mem frac = %v with the memory check disabled", sig.MemUsedFrac())
	}
	if sig.Goroutines < 1 {
		t.Fatalf("goroutines = %d", sig.Goroutines)
	}
	if reg.Gauge(MetricGoroutines).Value() < 1 {
		t.Fatal("os.goroutines gauge not published")
	}
	if got := c.LastSignals(); got.Goroutines != sig.Goroutines {
		t.Fatalf("LastSignals = %+v, want %+v", got, sig)
	}
	if reg.CounterValue(MetricSamples) != 1 {
		t.Fatalf("samples_total = %d", reg.CounterValue(MetricSamples))
	}
}

// TestDefaultsAndBudget: the automatic memory budget comes from the
// host when readable, and the descriptor thresholds from the soft
// RLIMIT_NOFILE.
func TestDefaultsAndBudget(t *testing.T) {
	c := New(Config{Telemetry: telemetry.NewRegistry()})
	if host := hostMemoryBytes(); host > 0 && c.cfg.MemBudgetBytes != host {
		t.Fatalf("auto budget = %d, want host total %d", c.cfg.MemBudgetBytes, host)
	}
	if soft := fdSoftLimit(); soft > 0 {
		if c.fdElevated != math.Floor(float64(soft)*0.7) || c.fdCritical != math.Floor(float64(soft)*0.9) {
			t.Fatalf("fd thresholds = %v/%v for soft limit %d", c.fdElevated, c.fdCritical, soft)
		}
	}
	if c.fdElevated <= 0 || c.fdCritical <= c.fdElevated {
		t.Fatalf("fd thresholds = %v/%v", c.fdElevated, c.fdCritical)
	}
}

// TestClassifyLadder drives every signal through the ladder at the
// fixed thresholds, one injected sample at a time: entry at Elevated
// and at Critical escalates on one sample; a value between entry·0.8
// and the entry holds the level; a value below entry·0.8 de-escalates
// only on the third calm sample in a row, and a hot sample restarts
// that count. The worst signal wins.
func TestClassifyLadder(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	fdE, fdC := fdThresholds()
	ratio := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	count := func(v float64) string { return strconv.Itoa(int(math.Ceil(v))) }
	signals := []struct {
		key        string
		elev, crit float64
		format     func(float64) string
	}{
		{"load", 2, 4, ratio},
		{"mem", 0.85, 0.95, ratio},
		{"disk", 0.85, 0.95, ratio},
		{"goroutines", 50_000, 200_000, count},
		{"fds", fdE, fdC, count},
	}
	type step struct {
		what string
		v    func(e, c float64) float64
		want Level
	}
	// Values sit a margin away from each bound, so the truncations of
	// the "mem" injection and of the integer signals cannot cross one.
	steps := []step{
		{"below elevated entry", func(e, _ float64) float64 { return e * 0.99 }, OK},
		{"elevated entry", func(e, _ float64) float64 { return e * 1.001 }, Elevated},
		{"elevated hold", func(e, _ float64) float64 { return e * 0.9 }, Elevated},
		{"critical entry", func(_, c float64) float64 { return c * 1.001 }, Critical},
		{"critical hold", func(_, c float64) float64 { return c * 0.9 }, Critical},
		{"critical calm 1", func(_, c float64) float64 { return c * 0.75 }, Critical},
		{"critical calm 2", func(_, c float64) float64 { return c * 0.75 }, Critical},
		{"hot again", func(_, c float64) float64 { return c * 1.001 }, Critical},
		{"critical calm 1 again", func(_, c float64) float64 { return c * 0.75 }, Critical},
		{"critical calm 2 again", func(_, c float64) float64 { return c * 0.75 }, Critical},
		{"critical calm 3", func(_, c float64) float64 { return c * 0.75 }, Elevated},
		{"elevated calm 1", func(e, _ float64) float64 { return e * 0.75 }, Elevated},
		{"elevated calm 2", func(e, _ float64) float64 { return e * 0.75 }, Elevated},
		{"elevated calm 3", func(e, _ float64) float64 { return e * 0.75 }, OK},
	}
	for _, sg := range signals {
		t.Run(sg.key, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			c := newController(reg)
			for _, st := range steps {
				spec := "pressure:" + sg.key + "=" + sg.format(st.v(sg.elev, sg.crit))
				if err := faultpoint.Arm(PointSignals, spec); err != nil {
					t.Fatal(err)
				}
				if _, lvl := c.Sample(); lvl != st.want {
					t.Fatalf("%s (%s): level = %v, want %v", st.what, spec, lvl, st.want)
				}
			}
			if n := reg.CounterValue(MetricTransitions); n != 4 {
				t.Fatalf("transitions_total = %d, want 4", n)
			}
			if n := reg.CounterValue(MetricInjected); n != int64(len(steps)) {
				t.Fatalf("injected_samples_total = %d", n)
			}
		})
	}
	// The worst signal wins.
	c := newController(telemetry.NewRegistry())
	if err := faultpoint.Arm(PointSignals, "pressure:load=2.5;disk=0.99"); err != nil {
		t.Fatal(err)
	}
	if _, lvl := c.Sample(); lvl != Critical {
		t.Fatalf("elevated load with a critical disk = %v", lvl)
	}
}

// TestHysteresis: once Critical, a value between exit and entry holds
// Critical; only dropping below entry·exitRatio releases it.
func TestHysteresis(t *testing.T) {
	c := newController(telemetry.NewRegistry())
	// Entry 4.0, exit 3.2 for load Critical.
	if got := c.classify(Signals{LoadPerCPU: 3.5}, OK); got != Elevated {
		t.Fatalf("fresh 3.5 load = %v, want Elevated", got)
	}
	if got := c.classify(Signals{LoadPerCPU: 3.5}, Critical); got != Critical {
		t.Fatalf("3.5 load while Critical = %v, want held Critical", got)
	}
	if got := c.classify(Signals{LoadPerCPU: 3.0}, Critical); got != Elevated {
		t.Fatalf("3.0 load while Critical = %v, want Elevated", got)
	}
	// Entry 2.0, exit 1.6 for Elevated.
	if got := c.classify(Signals{LoadPerCPU: 1.8}, Elevated); got != Elevated {
		t.Fatalf("1.8 load while Elevated = %v, want held", got)
	}
	if got := c.classify(Signals{LoadPerCPU: 1.5}, Elevated); got != OK {
		t.Fatalf("1.5 load while Elevated = %v, want OK", got)
	}
}

// TestDebounce: escalation needs raiseAfter (1) vote, de-escalation
// lowerAfter (3) consecutive votes, and a changed vote resets the
// calm streak.
func TestDebounce(t *testing.T) {
	c := newController(telemetry.NewRegistry())
	if lvl := c.step(Critical); lvl != Critical {
		t.Fatalf("one vote did not escalate: %v", lvl)
	}
	// Calm votes: two are not enough...
	c.step(OK)
	if lvl := c.step(OK); lvl != Critical {
		t.Fatalf("level dropped after 2/3 calm votes: %v", lvl)
	}
	// ...an interleaved re-escalation vote resets the calm streak...
	c.step(Critical)
	c.step(OK)
	if lvl := c.step(OK); lvl != Critical {
		t.Fatalf("calm streak survived an interruption: %v", lvl)
	}
	// ...and three in a row release it.
	if lvl := c.step(OK); lvl != OK {
		t.Fatalf("3/3 calm votes did not release: %v", lvl)
	}
}

// TestOnChangeAndTransitions: subscribers see each transition exactly
// once, in order, and the transition counter matches.
func TestOnChangeAndTransitions(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newController(reg)
	var mu sync.Mutex
	var seen []Level
	c.OnChange(func(l Level) {
		mu.Lock()
		seen = append(seen, l)
		mu.Unlock()
	})
	c.step(Critical)
	for i := 0; i < 3; i++ {
		c.step(Elevated)
	}
	c.step(Elevated) // no-op: already there
	for i := 0; i < 3; i++ {
		c.step(OK)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []Level{Critical, Elevated, OK}
	if len(seen) != len(want) {
		t.Fatalf("transitions seen = %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transitions seen = %v, want %v", seen, want)
		}
	}
	if n := reg.CounterValue(MetricTransitions); n != 3 {
		t.Fatalf("transitions_total = %d", n)
	}
}

// TestInjectedCycle: an armed pressure faultpoint with a budget drives
// the level for exactly that many samples, then hands sampling back to
// the real host.
func TestInjectedCycle(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	reg := telemetry.NewRegistry()
	c := newController(reg)

	if err := faultpoint.Arm(PointSignals, "pressure:level=critical*3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, lvl := c.Sample(); lvl != Critical {
			t.Fatalf("injected sample %d: level = %v", i, lvl)
		}
	}
	// Budget exhausted: the next sample is the host's own.
	sig, _ := c.Sample()
	if n := reg.CounterValue(MetricInjected); n != 3 {
		t.Fatalf("injected_samples_total = %d", n)
	}
	if n := reg.CounterValue(MetricSamples); n != 4 {
		t.Fatalf("samples_total = %d", n)
	}
	if sig.Goroutines < 1 {
		t.Fatalf("post-injection sample is not a real one: %+v", sig)
	}
}

// TestSyntheticGrammar: every injection key parses, junk is ignored.
func TestSyntheticGrammar(t *testing.T) {
	sig := syntheticSignals("load=7.5; mem=0.97 ;disk=0.5;goroutines=123;fds=45;junk;bad=x")
	if sig.LoadPerCPU != 7.5 || sig.DiskUsedFrac != 0.5 || sig.Goroutines != 123 || sig.FDs != 45 {
		t.Fatalf("parsed = %+v", sig)
	}
	if f := sig.MemUsedFrac(); f < 0.96 || f > 0.98 {
		t.Fatalf("mem frac = %v", f)
	}
	// level= synthesizes a decisive load for each level.
	if l := syntheticSignals("level=critical").LoadPerCPU; l < loadCritical {
		t.Fatalf("critical synthetic load %v below entry %v", l, loadCritical)
	}
	el := syntheticSignals("level=elevated").LoadPerCPU
	if el < loadElevated || el >= loadCritical*exitRatio {
		t.Fatalf("elevated synthetic load %v outside [%v, %v)", el, loadElevated, loadCritical*exitRatio)
	}
	if l := syntheticSignals("level=ok").LoadPerCPU; l != 0 {
		t.Fatalf("ok synthetic load = %v", l)
	}
}

// TestStartStop: the background loop samples on its own and stop is
// idempotent and race-free with a second Start.
func TestStartStop(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{Interval: time.Millisecond, MemBudgetBytes: -1, Telemetry: reg})
	stop := c.Start()
	stop2 := c.Start() // same loop
	deadline := time.Now().Add(2 * time.Second)
	for reg.CounterValue(MetricSamples) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never sampled")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop()
	stop2()
	n := reg.CounterValue(MetricSamples)
	time.Sleep(5 * time.Millisecond)
	if reg.CounterValue(MetricSamples) != n {
		t.Fatal("loop kept sampling after stop")
	}
	// A fresh Start works after a stop.
	stop3 := c.Start()
	defer stop3()
	deadline = time.Now().Add(2 * time.Second)
	for reg.CounterValue(MetricSamples) == n {
		if time.Now().After(deadline) {
			t.Fatal("restarted loop never sampled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentSampleAndReaders: Sample, Level, LastSignals and
// OnChange registration race cleanly (meaningful under -race).
func TestConcurrentSampleAndReaders(t *testing.T) {
	c := newController(telemetry.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Sample()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = c.Level()
			_ = c.LastSignals()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			c.OnChange(func(Level) {})
		}
	}()
	wg.Wait()
}

// TestSignalsString formats without panicking and mentions the level
// drivers.
func TestSignalsString(t *testing.T) {
	s := Signals{LoadPerCPU: 1.23, RSSBytes: 10, MemBudgetBytes: 100, DiskUsedFrac: 0.5, Goroutines: 7, FDs: 3}
	got := s.String()
	for _, want := range []string{"load/cpu=1.23", "disk=50%", "goroutines=7", "fds=3"} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q missing %q", got, want)
		}
	}
}
