package server

import (
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// metrics bridges the service's live counters onto an instance-local
// telemetry.Registry. The registry serves two expositions — /debug/vars
// (expvar-style JSON, bit-compatible with the pre-telemetry keys) and
// /metrics (Prometheus text) — from the same underlying values.
// Nothing is published globally, so multiple servers — e.g. in tests —
// never collide.
type metrics struct {
	start time.Time
	tel   *telemetry.Registry

	jobsCreated  *telemetry.Counter
	jobsDone     *telemetry.Counter
	jobsFailed   *telemetry.Counter
	jobsCanceled *telemetry.Counter
	jobsRejected *telemetry.Counter
	// retryAfterSecs is the Retry-After the last over-capacity
	// rejection advertised — rising values mean clients are hammering
	// a saturated server.
	retryAfterSecs *telemetry.Gauge

	streamsActive *telemetry.Gauge
	scopesTotal   *telemetry.Counter
	edgesTotal    *telemetry.Counter
	bytesTotal    *telemetry.Counter

	// edgesPerSec averages the edge throughput over a fixed sliding
	// window. Unlike the old delta-since-last-read gauge, the window is
	// independent of scrape cadence, so two concurrent /debug/vars
	// readers observe the same rate instead of corrupting each other's
	// delta.
	edgesPerSec *telemetry.RateGauge
}

// newMetrics wires the counters, the derived gauges and the per-job
// progress snapshot into one registry, under the historical
// /debug/vars key names.
func newMetrics(reg *registry, tel *telemetry.Registry) *metrics {
	m := &metrics{
		start:          time.Now(),
		tel:            tel,
		jobsCreated:    tel.Counter("jobs_created"),
		jobsDone:       tel.Counter("jobs_done"),
		jobsFailed:     tel.Counter("jobs_failed"),
		jobsCanceled:   tel.Counter("jobs_canceled"),
		jobsRejected:   tel.Counter("jobs_rejected"),
		retryAfterSecs: tel.Gauge("retry_after_seconds"),
		streamsActive:  tel.Gauge("streams_active"),
		scopesTotal:    tel.Counter("scopes_streamed"),
		edgesTotal:     tel.Counter("edges_streamed"),
		bytesTotal:     tel.Counter("bytes_streamed"),
		edgesPerSec:    tel.RateGauge("edges_per_sec", 0),
	}
	tel.GaugeFunc("uptime_seconds", func() float64 {
		return time.Since(m.start).Seconds()
	})
	tel.Func("jobs", func() any {
		type progress struct {
			State    JobState `json:"state"`
			Progress float64  `json:"progress"`
			Edges    int64    `json:"edges"`
		}
		out := make(map[string]progress)
		for _, st := range reg.list() {
			out[st.ID] = progress{State: st.State, Progress: st.Progress, Edges: st.EdgesStreamed}
		}
		return out
	})
	return m
}

// addEdges feeds n streamed edges into both the lifetime total and the
// windowed rate.
func (m *metrics) addEdges(n int64) {
	m.edgesTotal.Add(n)
	m.edgesPerSec.Add(n)
}

// handler serves the counters as a flat JSON object, the same shape
// expvar's own /debug/vars handler produces.
func (m *metrics) handler(w http.ResponseWriter, r *http.Request) {
	m.tel.JSONHandler().ServeHTTP(w, r)
}

// promHandler serves the same registry in Prometheus text format.
func (m *metrics) promHandler(w http.ResponseWriter, r *http.Request) {
	m.tel.PrometheusHandler().ServeHTTP(w, r)
}
