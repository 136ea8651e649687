package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/sched"
)

// pressureOpts enables the built-in controller. Tests own the level —
// no Start, no background sampling — so no real host signal can move
// it under us.
func pressureOpts() Options {
	return Options{
		MaxActiveStreams: 2,
		EnablePressure:   true,
		PressureConfig:   pressure.Config{MemBudgetBytes: -1},
	}
}

func getCode(t *testing.T, url string) (int, http.Header, map[string]string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, resp.Header, body
}

// TestReadyzAndDegradedCreate: /readyz flips to 503 at critical (with
// a Retry-After) and back; /healthz stays a liveness probe; POST
// /v1/jobs sheds with 503 under critical.
func TestReadyzAndDegradedCreate(t *testing.T) {
	s, base := newTestServer(t, pressureOpts())
	ctrl := s.Pressure()
	if ctrl == nil {
		t.Fatal("EnablePressure did not build a controller")
	}

	code, _, body := getCode(t, base+"/readyz")
	if code != http.StatusOK || body["pressure"] != "ok" {
		t.Fatalf("readyz at ok = %d %v", code, body)
	}

	ctrl.Force(pressure.Critical)
	code, hdr, body := getCode(t, base+"/readyz")
	if code != http.StatusServiceUnavailable || body["pressure"] != "critical" {
		t.Fatalf("readyz at critical = %d %v", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on pressure-shed readyz")
	}
	// Liveness is not readiness: the process is loaded, not dead.
	if code, _, body = getCode(t, base+"/healthz"); code != http.StatusOK || body["pressure"] != "critical" {
		t.Fatalf("healthz at critical = %d %v", code, body)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"scale":10,"format":"tsv"}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST under critical = %d %s", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on pressure-shed create")
	}

	ctrl.Force(pressure.OK)
	if code, _, _ = getCode(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d", code)
	}
	createJob(t, base, `{"scale":10,"format":"tsv"}`)
}

// TestPressureDegradationChaos is the acceptance scenario, driven
// end-to-end through faultpoint injection (the same mechanism the CI
// smoke job arms via TRILLIONG_FAULTPOINTS): synthetic pressure walks
// ok→critical→ok and the server sheds, pauses the background class,
// flips /readyz, recovers cleanly — and streams byte-identical output
// throughout. Run with -race.
func TestPressureDegradationChaos(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)

	cfg := core.DefaultConfig(12)
	cfg.MasterSeed = 7
	cfg.Workers = 3
	want := generateToDir(t, cfg, gformat.TSV)
	spec := `{"scale":12,"master_seed":7,"workers":3,"format":"tsv","class":"%s"}`

	s, base := newTestServer(t, pressureOpts())
	ctrl := s.Pressure()

	// Unpressured baseline: a batch job streams the reference bytes.
	baseline := streamJobID(t, base, createJob(t, base, strings.Replace(spec, "%s", "batch", 1)))
	if !bytes.Equal(baseline, want) {
		t.Fatalf("baseline stream differs from batch reference (%d vs %d bytes)", len(baseline), len(want))
	}

	// Jobs created while still ok — creation is what critical sheds.
	bgJob := createJob(t, base, strings.Replace(spec, "%s", "background", 1))
	batchJob := createJob(t, base, strings.Replace(spec, "%s", "batch", 1))

	// ok → critical, via the injection faultpoint.
	if err := faultpoint.Arm(pressure.PointSignals, "pressure:level=critical"); err != nil {
		t.Fatal(err)
	}
	if _, lvl := ctrl.Sample(); lvl != pressure.Critical {
		t.Fatalf("injected sample left level %v", lvl)
	}
	if code, _, _ := getCode(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during critical = %d", code)
	}

	// The background stream parks: its class is paused at critical.
	bgDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(base + "/v1/jobs/" + bgJob + "/stream")
		if err != nil {
			bgDone <- nil
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			bgDone <- nil
			return
		}
		b, _ := io.ReadAll(resp.Body)
		bgDone <- b
	}()
	select {
	case b := <-bgDone:
		t.Fatalf("background stream ran under critical pressure (%d bytes, nil=%v)", len(b), b == nil)
	case <-time.After(150 * time.Millisecond):
	}

	// Batch work still flows through the shrunk pool — and its bytes
	// are identical: pressure decides when, never what.
	if got := streamJobID(t, base, batchJob); !bytes.Equal(got, want) {
		t.Fatalf("batch stream under pressure differs (%d vs %d bytes)", len(got), len(want))
	}
	if s.Telemetry().CounterValue(sched.MetricBackgroundDeferred) == 0 {
		t.Fatal("background_deferred_total never counted")
	}

	// critical → ok: re-arm the point with calm signals and sample
	// through the debounce (three calm samples).
	if err := faultpoint.Arm(pressure.PointSignals, "pressure:level=ok"); err != nil {
		t.Fatal(err)
	}
	for calm := 1; calm < 3; calm++ {
		ctrl.Sample()
		if lvl := ctrl.Level(); lvl != pressure.Critical {
			t.Fatalf("recovered after %d calm samples despite the debounce of 3 (level %v)", calm, lvl)
		}
	}
	ctrl.Sample()
	if lvl := ctrl.Level(); lvl != pressure.OK {
		t.Fatalf("level after recovery = %v", lvl)
	}
	if code, _, _ := getCode(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d", code)
	}

	// The parked background stream resumes on the transition (OnChange
	// → Poke) and its bytes are identical too.
	select {
	case b := <-bgDone:
		if b == nil {
			t.Fatal("background stream failed after recovery")
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("background stream differs after pressure cycle (%d vs %d bytes)", len(b), len(want))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("background stream never resumed after recovery")
	}
}

// streamJob GETs a job's stream and returns its bytes.
func streamJobID(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: %d %v", id, resp.StatusCode, err)
	}
	return b
}
