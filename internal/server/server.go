package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TenantHeader names the HTTP request header carrying the tenant
// identifier. Requests without it are accounted to sched.DefaultTenant.
const TenantHeader = "X-Trilliong-Tenant"

// Options configures a Server. Zero fields take the documented
// defaults.
type Options struct {
	// MaxActiveStreams bounds concurrently streaming jobs — the
	// scheduler's slot count. Streams past it queue under weighted fair
	// sharing; tenants past their own bounds get 429 with Retry-After
	// (0 = 4).
	MaxActiveStreams int
	// MaxJobs bounds the registry; when full, the oldest finished job
	// is evicted (then the oldest stale pending one), and POST fails
	// with 503 if every slot is live (0 = 1024).
	MaxJobs int
	// MaxWorkersPerJob caps the threads that generate a job (0 =
	// GOMAXPROCS). Jobs that ask for 0 workers get this cap.
	MaxWorkersPerJob int
	// MaxScale rejects specs above this scale (0 = 34).
	MaxScale int
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints are opt-in (trilliong-serve's -pprof
	// flag) because they expose process internals.
	EnablePprof bool

	// Tenants holds per-tenant scheduling limits (weight, rate,
	// concurrency, queue bounds), keyed by tenant name. Tenants not
	// listed get TenantDefaults.
	Tenants map[string]sched.Limits
	// TenantDefaults applies to tenants absent from Tenants. The zero
	// value means scheduler defaults: weight 1, no rate limit, a
	// 64-deep queue shed after 30s.
	TenantDefaults sched.Limits

	// EnablePressure builds a host-pressure controller into the server:
	// the scheduler degrades with the host (shrunk slot pool, paused
	// background class, stretched Retry-After), /readyz flips to 503 at
	// critical, POST /v1/jobs sheds with 503 + Retry-After at critical,
	// and an attached store tightens its byte budget. The controller's
	// os.* / pressure.* gauges join the server's /debug/vars registry.
	// Callers that want background sampling start it with
	// Pressure().Start(); tests drive Sample (or inject via
	// faultpoint) themselves.
	EnablePressure bool
	// PressureConfig tunes the controller when EnablePressure is set.
	// Its Telemetry field is ignored — the server's registry is used —
	// and DiskPath is usually the artifact-store directory.
	PressureConfig pressure.Config
}

func (o Options) withDefaults() Options {
	if o.MaxActiveStreams < 1 {
		o.MaxActiveStreams = 4
	}
	if o.MaxJobs < 1 {
		o.MaxJobs = 1024
	}
	if o.MaxWorkersPerJob < 1 {
		o.MaxWorkersPerJob = runtime.GOMAXPROCS(0)
	}
	if o.MaxScale < 1 {
		o.MaxScale = 34
	}
	return o
}

// Server is the TrillionG generation service: a job registry plus the
// HTTP API over it. Create one with New, mount Handler on an
// http.Server, and call Shutdown (after stopping the listener) to
// drain.
type Server struct {
	opts     Options
	reg      *registry
	metrics  *metrics
	mux      *http.ServeMux
	sched    *sched.Scheduler
	draining atomic.Bool
	streams  sync.WaitGroup

	// rejectStreak counts consecutive over-capacity stream rejections;
	// retryPolicy turns the streak into the advertised Retry-After.
	rejectStreak atomic.Int64
	retryPolicy  backoff.Policy

	// store, when set via SetStore, caches completed job artifacts and
	// satisfies repeat jobs without regeneration; spoolDir stages
	// in-flight copies. presignTTL, when positive, lets /download
	// answer with a 302 to a presigned cold-tier URL valid that long.
	store      *store.Store
	spoolDir   string
	presignTTL time.Duration

	// pressure is the host-pressure controller (nil unless
	// Options.EnablePressure).
	pressure *pressure.Controller
}

// New builds a Server with the given options.
func New(opts Options) *Server {
	s := &Server{
		opts:        opts.withDefaults(),
		retryPolicy: backoff.Policy{Base: time.Second, Max: 30 * time.Second},
	}
	s.reg = newRegistry(s.opts.MaxJobs, defaultPendingTTL)
	s.metrics = newMetrics(s.reg, telemetry.NewRegistry())
	if s.opts.EnablePressure {
		pc := s.opts.PressureConfig
		pc.Telemetry = s.metrics.tel
		s.pressure = pressure.New(pc)
	}
	s.sched = sched.New(sched.Config{
		Slots:     s.opts.MaxActiveStreams,
		Tenants:   s.opts.Tenants,
		Defaults:  s.opts.TenantDefaults,
		Telemetry: s.metrics.tel,
		Pressure:  s.pressure,
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/download", s.handleDownload)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /debug/vars", s.metrics.handler)
	s.mux.HandleFunc("GET /metrics", s.metrics.promHandler)
	if s.opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry returns the server's metrics registry — the backing store
// of /debug/vars and /metrics.
func (s *Server) Telemetry() *telemetry.Registry { return s.metrics.tel }

// SetPresignTTL enables presigned cold-tier downloads: when positive
// and the attached store's backend can mint presigned URLs, GET
// /v1/jobs/{id}/download answers with a 302 to a URL valid for ttl
// whenever the artifact is remote-only, instead of pulling it through
// this process. Zero (the default) always streams locally. Call before
// serving requests, alongside SetStore.
func (s *Server) SetPresignTTL(ttl time.Duration) { s.presignTTL = ttl }

// Pressure returns the server's host-pressure controller (nil unless
// Options.EnablePressure). Callers own background sampling: start it
// with Pressure().Start() and stop it before or after Shutdown.
func (s *Server) Pressure() *pressure.Controller { return s.pressure }

// pressureLevel is the current host-pressure level (OK when pressure
// awareness is off).
func (s *Server) pressureLevel() pressure.Level {
	if s.pressure == nil {
		return pressure.OK
	}
	return s.pressure.Level()
}

// setRetryAfterForPressure advertises when a pressure-shed request is
// worth retrying: the controller's debounced recovery time.
func (s *Server) setRetryAfterForPressure(w http.ResponseWriter) {
	secs := int64(s.pressure.RecoveryHint() / time.Second)
	if secs < 1 {
		secs = 1
	}
	s.metrics.retryAfterSecs.Set(float64(secs))
	w.Header().Set("Retry-After", fmt.Sprint(secs))
}

// BeginDrain puts the server into draining mode: new jobs and new
// streams are rejected with 503 while in-flight streams keep running.
// Status, list and metrics endpoints stay available.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains the server gracefully: it rejects new work and waits
// for in-flight streams to finish, or until ctx expires — then every
// remaining job is cancelled and Shutdown returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.streams.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, st := range s.reg.list() {
			if j, ok := s.reg.get(st.ID); ok {
				j.Cancel()
			}
		}
		<-done
		return ctx.Err()
	}
}

// writeJSON emits v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// contentType is the media type a stream or download of format f is
// served as.
func contentType(f gformat.Format) string {
	if f == gformat.TSV {
		return "text/tab-separated-values; charset=utf-8"
	}
	return "application/octet-stream"
}

// createResponse answers POST /v1/jobs.
type createResponse struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Tenant      string `json:"tenant"`
	Class       string `json:"class"`
	CostEdges   int64  `json:"cost_edges"`
	ScopesTotal int64  `json:"scopes_total"`
	StatusURL   string `json:"status_url"`
	StreamURL   string `json:"stream_url"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.pressureLevel() >= pressure.Critical {
		// Degraded mode: shed new work at the front door so the host
		// can climb back down. Already-created jobs keep their slots —
		// the scheduler is applying its own ladder to those.
		s.metrics.jobsRejected.Add(1)
		s.setRetryAfterForPressure(w)
		writeError(w, http.StatusServiceUnavailable, "server is under critical host pressure; retry later")
		return
	}
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = sched.DefaultTenant
	}
	if !sched.ValidTenant(tenant) {
		writeError(w, http.StatusBadRequest, "invalid %s %q (want 1-64 chars of [a-zA-Z0-9._-])", TenantHeader, tenant)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	class, ok := sched.ParseClass(spec.Class)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown class %q (want interactive, batch or background)", spec.Class)
		return
	}
	c, err := spec.compile(specLimits{
		maxScale:         s.opts.MaxScale,
		maxWorkersPerJob: s.opts.MaxWorkersPerJob,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.reg.add(spec, tenant, class, c)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.metrics.jobsCreated.Add(1)
	writeJSON(w, http.StatusCreated, createResponse{
		ID:          job.ID,
		State:       string(StatePending),
		Tenant:      tenant,
		Class:       class.String(),
		CostEdges:   c.cost,
		ScopesTotal: c.scopesTotal,
		StatusURL:   "/v1/jobs/" + job.ID,
		StreamURL:   "/v1/jobs/" + job.ID + "/stream",
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	job.Cancel()
	w.WriteHeader(http.StatusNoContent)
}

// handleHealth is the liveness probe: 200 whenever the process can
// still answer (host pressure is reported but does not flip it — a
// loaded process is alive), 503 only once draining for shutdown.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":   "ok",
		"pressure": s.pressureLevel().String(),
	})
}

// handleReady is the readiness probe: 503 while draining or under
// critical host pressure, so load balancers route new work elsewhere
// until the host recovers. In-flight streams are unaffected.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	lvl := s.pressureLevel()
	if lvl >= pressure.Critical {
		s.setRetryAfterForPressure(w)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status":   "not ready",
			"pressure": lvl.String(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":   "ready",
		"pressure": lvl.String(),
	})
}

// flushWriter forwards stream bytes to the client, flushing each chunk
// onto the wire (the encoders buffer 64 KiB internally, so flushes are
// amortized) and feeding the live byte counters.
type flushWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	job     *Job
	metrics *metrics
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if n > 0 {
		f.job.bytes.Add(int64(n))
		f.metrics.bytesTotal.Add(int64(n))
	}
	if f.flusher != nil {
		f.flusher.Flush()
	}
	return n, err
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	if prev, ok := job.tryQueue(cancel); !ok {
		writeError(w, http.StatusConflict, "job %s is %s; streams are one-shot", job.ID, prev)
		return
	}
	grant, err := s.sched.Acquire(ctx, sched.Request{
		Tenant: job.Tenant,
		Class:  job.Class,
		Cost:   job.cost,
	})
	if err != nil {
		var adm *sched.AdmissionError
		if errors.As(err, &adm) {
			// Rejected or shed without running: back to pending so a
			// later attempt can retry, and tell the client when. The
			// advertised wait is the larger of the scheduler's honest
			// estimate and the streak backoff schedule, so hot-looping
			// clients are shed even when the queue estimate is short.
			job.unqueue()
			s.metrics.jobsRejected.Add(1)
			streak := s.rejectStreak.Add(1)
			delay := adm.RetryAfter
			if d := s.retryPolicy.NextDelay(int(streak - 1)); d > delay {
				delay = d
			}
			secs := int64(delay / time.Second)
			if secs < 1 {
				secs = 1
			}
			s.metrics.retryAfterSecs.Set(float64(secs))
			w.Header().Set("Retry-After", fmt.Sprint(secs))
			writeError(w, http.StatusTooManyRequests, "%v", adm)
			return
		}
		// The context was cut while queued: client disconnect or DELETE.
		job.finish(err, ctx.Err())
		s.finishMetrics(job)
		writeError(w, http.StatusConflict, "job %s canceled while queued", job.ID)
		return
	}
	defer grant.Release()
	s.rejectStreak.Store(0)
	if prev, ok := job.tryRun(); !ok {
		// DELETE raced the grant: the job left queued before we could
		// start it.
		writeError(w, http.StatusConflict, "job %s is %s; streams are one-shot", job.ID, prev)
		return
	}
	s.streams.Add(1)
	defer s.streams.Done()
	s.metrics.streamsActive.Add(1)
	defer s.metrics.streamsActive.Add(-1)

	w.Header().Set("Content-Type", contentType(job.format))
	w.Header().Set("X-Trilliong-Job-Id", job.ID)
	w.Header().Set("X-Trilliong-Scopes-Total", fmt.Sprint(job.scopesTotal))

	// A cancelled stream may be wedged in a Write to a stalled client,
	// where it would never observe ctx; expiring the write deadline
	// unblocks it with an error.
	rc := http.NewResponseController(w)
	stopPoke := context.AfterFunc(ctx, func() { rc.SetWriteDeadline(time.Now()) })
	defer stopPoke()

	flusher, _ := w.(http.Flusher)
	out := &flushWriter{w: w, flusher: flusher, job: job, metrics: s.metrics}

	// With a store attached, a cached artifact satisfies the stream
	// without generation; a generated stream is spooled and ingested so
	// the next identical job hits.
	err = nil
	if s.store != nil {
		served, serveErr := s.serveFromStore(w, out, job)
		if served {
			job.finish(serveErr, ctx.Err())
			s.finishMetrics(job)
			return
		}
		err = serveErr
	}
	if err == nil {
		streamOut := io.Writer(out)
		var sw *spoolWriter
		if s.store != nil {
			w.Header().Set("X-Trilliong-Cache", "miss")
			if spool, terr := os.CreateTemp(s.spoolDir, "gen-*"); terr == nil {
				sw = &spoolWriter{Writer: out, f: spool}
				streamOut = sw
			}
			// A spool-temp failure just means this stream isn't cached.
		}
		// Whatever the shape, the stream is the job's parts in order
		// through one executor — byte-identical to the batch part files
		// concatenated, so the spooled artifact is shared with the
		// part-file world.
		_, err = core.StreamParts(ctx, job.src, job.format, job.ranges, job.ids, job.workers, streamOut, s.metrics.tel,
			func(_ int, done core.Stats) error {
				job.scopes.Add(done.Scopes)
				job.edges.Add(done.Edges)
				s.metrics.scopesTotal.Add(done.Scopes)
				s.metrics.addEdges(done.Edges)
				return nil
			})
		if sw != nil {
			s.ingestSpooled(sw, job, err)
		}
	}
	job.finish(err, ctx.Err())
	s.finishMetrics(job)
}

// finishMetrics records a finished stream's terminal state.
func (s *Server) finishMetrics(job *Job) {
	switch job.State() {
	case StateDone:
		s.metrics.jobsDone.Add(1)
	case StateCanceled:
		s.metrics.jobsCanceled.Add(1)
	case StateFailed:
		s.metrics.jobsFailed.Add(1)
	}
	// Headers are already on the wire; an error here can only cut the
	// stream short, which the client sees as a truncated chunked body.
}
