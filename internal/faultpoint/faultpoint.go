// Package faultpoint implements named fault-injection points for the
// distributed runtime's chaos tests and for operator-driven fire
// drills. A call site marks a step with Fire("dist.worker.result");
// normally that is one atomic load and a nil return. When the point is
// armed — programmatically, via the -faultpoints flag, or via the
// TRILLIONG_FAULTPOINTS environment variable — Fire injects the armed
// fault instead:
//
//	fail[:msg]     return an error (default message "injected failure")
//	stall:dur      sleep for the duration, then return nil
//	drop           return ErrDrop; the caller closes its connection
//	crash[:code]   terminate the process via Exit (default code 7)
//	pressure:val   carry an opaque value string for FireValue callers
//
// A spec may carry a firing budget: "drop*2" fires twice and then
// disarms, so a chaos test can kill exactly one worker. Without a
// budget the point fires every time until Reset or Disarm.
//
// "pressure" points are value injections rather than faults: they are
// read through FireValue (which consumes the firing budget and returns
// the value string) and are invisible to Fire, so a synthetic-pressure
// spec armed against a sampler cannot accidentally fail an unrelated
// call site sharing the name. internal/pressure interprets the value
// as semicolon-separated signal overrides, e.g.
//
//	TRILLIONG_FAULTPOINTS="pressure.signals=pressure:level=critical*20"
//
// Spec lists are comma-separated "name=spec" pairs:
//
//	TRILLIONG_FAULTPOINTS="dist.worker.scope=drop*1,core.sink.write=fail:disk on fire"
package faultpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "TRILLIONG_FAULTPOINTS"

// ErrDrop is returned by an armed "drop" point; the caller is expected
// to close its network connection, simulating a vanished peer.
var ErrDrop = errors.New("faultpoint: drop connection")

// Exit is called by "crash" points; tests substitute it to observe the
// crash without dying.
var Exit = os.Exit

type kind int

const (
	kindFail kind = iota
	kindStall
	kindDrop
	kindCrash
	kindPressure
)

type point struct {
	kind      kind
	msg       string        // fail message
	stall     time.Duration // stall duration
	code      int           // crash exit code
	remaining int64         // firing budget; < 0 = unlimited
	hits      int64         // times fired (for tests/diagnostics)
}

var (
	mu     sync.Mutex
	points map[string]*point
	// armed is the fast path: Fire is called on hot paths (every scope
	// an atomic part writer takes, every chunk a dist worker writes), so
	// the disarmed case must cost one atomic load.
	armed atomic.Int32
)

// Arm installs one point from a spec ("fail", "fail:msg", "stall:2s",
// "drop", "crash", "crash:3", each optionally suffixed "*N").
func Arm(name, spec string) error {
	if name == "" {
		return fmt.Errorf("faultpoint: empty point name")
	}
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultpoint: %s: %w", name, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*point)
	}
	points[name] = p
	armed.Store(1)
	return nil
}

// ArmSpecs installs a comma-separated "name=spec" list; an empty
// string arms nothing.
func ArmSpecs(specs string) error {
	for _, entry := range strings.Split(specs, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, spec, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("faultpoint: entry %q is not name=spec", entry)
		}
		if err := Arm(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// ArmFromEnv arms every point listed in TRILLIONG_FAULTPOINTS.
func ArmFromEnv() error { return ArmSpecs(os.Getenv(EnvVar)) }

// Disarm removes one point.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
	if len(points) == 0 {
		armed.Store(0)
	}
}

// Reset removes every point (tests call it in cleanup).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	armed.Store(0)
}

// Hits reports how many times the named point has fired since it was
// armed (0 when unknown).
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return int(p.hits)
	}
	return 0
}

// List names the currently armed points, sorted.
func List() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Fire evaluates the named point. Disarmed (the overwhelmingly common
// case) it returns nil after a single atomic load. Armed, it consumes
// one unit of the firing budget and injects the fault: fail returns an
// error, stall sleeps then returns nil, drop returns ErrDrop, crash
// calls Exit and does not return.
func Fire(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	p := points[name]
	if p == nil {
		mu.Unlock()
		return nil
	}
	// Value injections are read through FireValue only; Fire passes
	// them by without consuming budget.
	if p.kind == kindPressure {
		mu.Unlock()
		return nil
	}
	if p.remaining == 0 {
		mu.Unlock()
		return nil
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.hits++
	// Copy what the fault needs, then release the lock: a stall must
	// not serialize every other Fire behind it.
	k, msg, stall, code := p.kind, p.msg, p.stall, p.code
	mu.Unlock()

	switch k {
	case kindFail:
		return fmt.Errorf("faultpoint %s: %s", name, msg)
	case kindStall:
		time.Sleep(stall)
		return nil
	case kindDrop:
		return fmt.Errorf("faultpoint %s: %w", name, ErrDrop)
	case kindCrash:
		Exit(code)
	}
	return nil
}

// FireValue evaluates the named value-injection ("pressure") point.
// Armed, it consumes one unit of the firing budget and returns the
// spec's value string; disarmed, exhausted, or armed with a non-value
// kind it returns ("", false). The disarmed fast path is one atomic
// load, so samplers may call it every tick.
func FireValue(name string) (string, bool) {
	if armed.Load() == 0 {
		return "", false
	}
	mu.Lock()
	defer mu.Unlock()
	p := points[name]
	if p == nil || p.kind != kindPressure || p.remaining == 0 {
		return "", false
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.hits++
	return p.msg, true
}

func parseSpec(spec string) (*point, error) {
	spec = strings.TrimSpace(spec)
	p := &point{remaining: -1}
	if base, count, ok := strings.Cut(spec, "*"); ok {
		n, err := strconv.Atoi(strings.TrimSpace(count))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad firing budget in %q", spec)
		}
		p.remaining = int64(n)
		spec = strings.TrimSpace(base)
	}
	verb, arg, hasArg := strings.Cut(spec, ":")
	switch verb {
	case "fail":
		p.kind = kindFail
		p.msg = "injected failure"
		if hasArg && arg != "" {
			p.msg = arg
		}
	case "stall":
		p.kind = kindStall
		if !hasArg {
			return nil, fmt.Errorf("stall needs a duration, e.g. stall:2s")
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad stall duration %q", arg)
		}
		p.stall = d
	case "drop":
		if hasArg {
			return nil, fmt.Errorf("drop takes no argument")
		}
		p.kind = kindDrop
	case "crash":
		p.kind = kindCrash
		p.code = 7
		if hasArg && arg != "" {
			c, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("bad crash code %q", arg)
			}
			p.code = c
		}
	case "pressure":
		if !hasArg || arg == "" {
			return nil, fmt.Errorf("pressure needs a value, e.g. pressure:level=critical")
		}
		p.kind = kindPressure
		p.msg = arg
	default:
		return nil, fmt.Errorf("unknown fault kind %q (want fail, stall, drop, crash or pressure)", verb)
	}
	return p, nil
}
