package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/skg"
	"repro/internal/store"
)

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: pending → queued → running → done | failed | canceled.
// A pending job may also go straight to canceled; a queued job whose
// admission is shed returns to pending (retryable).
const (
	StatePending  JobState = "pending"
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobSpec is the wire-format generation request accepted by
// POST /v1/jobs. Zero fields take the generator's defaults: edge
// factor 16, the Graph500 seed matrix, master seed 1, format "tsv",
// and the full vertex range [0, 2^scale).
type JobSpec struct {
	// Scale is log2 of the vertex count (required).
	Scale int `json:"scale"`
	// EdgeFactor is |E|/|V| (0 = 16).
	EdgeFactor int64 `json:"edge_factor,omitempty"`
	// Seed is the stochastic seed matrix [a, b, c, d] (nil = Graph500).
	Seed *[4]float64 `json:"seed,omitempty"`
	// Noise is the NSKG noise parameter (0 disables, 0.1 standard).
	Noise float64 `json:"noise,omitempty"`
	// MasterSeed selects the pseudo-random universe (0 = 1).
	MasterSeed uint64 `json:"master_seed,omitempty"`
	// Workers is the producer goroutine count (0 = server default,
	// capped by the server's per-job limit).
	Workers int `json:"workers,omitempty"`
	// Format is "tsv" or "adj6" ("" = "tsv"). CSR6 needs a seekable
	// sink and cannot stream.
	Format string `json:"format,omitempty"`
	// Lo/Hi select a vertex sub-range [Lo, Hi) (nil = full range).
	Lo *int64 `json:"lo,omitempty"`
	Hi *int64 `json:"hi,omitempty"`
	// AllowDuplicates skips in-scope dedup (Graph500-edge-list
	// semantics).
	AllowDuplicates bool `json:"allow_duplicates,omitempty"`
	// Class is the scheduling priority class: "interactive", "batch"
	// (the default) or "background".
	Class string `json:"class,omitempty"`

	// Shape selects the generation model: "" or "skg" is the classic
	// recursive-vector path above; "bipartite" generates a plain
	// bipartite graph (Rows source vertices, Cols destination vertices,
	// EdgeFactor·Rows edges — the two-community degenerate case);
	// "community" generates the full community composition described by
	// Community. The community shapes stream whole graphs: Scale, Seed,
	// Noise, Lo and Hi must be unset.
	Shape string `json:"shape,omitempty"`
	// Rows/Cols size the bipartite shape (both required for it).
	Rows *int64 `json:"rows,omitempty"`
	Cols *int64 `json:"cols,omitempty"`
	// Community is the community spec (internal/community's JSON wire
	// format), required by — and exclusive to — shape "community".
	Community json.RawMessage `json:"community,omitempty"`
}

// specLimits bounds what a spec may ask of the server.
type specLimits struct {
	maxScale         int
	maxWorkersPerJob int
}

// compiled is a spec resolved against the server limits into what a
// stream needs, whatever its shape: the part source, the parts a stream
// writes in order (the one range [lo, hi) of the classic shape, the
// layout's blocks for community shapes), the artifact key of the whole
// output (core.PartKey of the range for the classic shape, the layout's
// ArtifactKey for community shapes — so server jobs share cache entries
// with batch and distributed runs of the same configuration), and the
// numbers the API reports.
type compiled struct {
	src     core.PartSource
	ranges  []partition.Range
	ids     []int
	workers int
	key     store.Key
	format  gformat.Format
	lo, hi  int64
	scale   int // 0 for community shapes
	// cost is the admission cost: the job's expected edge count
	// (Theorem 1 for the classic shape, the layout's planned edge budget
	// for community shapes), so fairness and rate limits are apportioned
	// over expected work — one scale-30 job weighs as much as thousands
	// of small ones.
	cost int64
	// scopesTotal is the number of scopes the stream emits: one per
	// vertex for the classic shape, one per (block, source row) for
	// community layouts (a vertex heads one scope per block it sources).
	scopesTotal int64
}

// compileWorkers bounds the spec's worker count by the server's
// per-job limit; jobs that ask for 0 workers get the limit.
func (s JobSpec) compileWorkers(lim specLimits) (int, error) {
	if s.Workers < 0 {
		return 0, fmt.Errorf("server: negative workers")
	}
	if lim.maxWorkersPerJob > 0 && (s.Workers == 0 || s.Workers > lim.maxWorkersPerJob) {
		return lim.maxWorkersPerJob, nil
	}
	return s.Workers, nil
}

// compileFormat resolves and bounds the spec's format: only the
// concatenation-safe encodings stream (and community layouts need them
// for the same reason — see community.GenerateToDir).
func (s JobSpec) compileFormat() (gformat.Format, error) {
	name := s.Format
	if name == "" {
		name = "tsv"
	}
	format, err := gformat.ParseFormat(name)
	if err != nil {
		return 0, err
	}
	if !format.Streams() {
		return 0, fmt.Errorf("server: format %v is not streamable (use tsv or adj6)", format)
	}
	return format, nil
}

// compile validates the spec against the limits and resolves it to a
// compiled job.
func (s JobSpec) compile(lim specLimits) (compiled, error) {
	switch s.Shape {
	case "", "skg":
		return s.compileClassic(lim)
	case "bipartite", "community":
		return s.compileCommunity(lim)
	default:
		return compiled{}, fmt.Errorf("server: unknown shape %q (want skg, bipartite or community)", s.Shape)
	}
}

// compileCommunity resolves the bipartite and community shapes to a
// layout. The classic knobs that have no meaning here must be unset, so
// a typo'd spec fails loudly instead of silently ignoring half itself.
func (s JobSpec) compileCommunity(lim specLimits) (compiled, error) {
	if s.Scale != 0 || s.Seed != nil || s.Noise != 0 || s.Lo != nil || s.Hi != nil {
		return compiled{}, fmt.Errorf("server: shape %q streams a whole community graph; scale, seed, noise, lo and hi must be unset", s.Shape)
	}
	format, err := s.compileFormat()
	if err != nil {
		return compiled{}, err
	}
	workers, err := s.compileWorkers(lim)
	if err != nil {
		return compiled{}, err
	}
	var cfg community.Config
	switch s.Shape {
	case "bipartite":
		if len(s.Community) != 0 {
			return compiled{}, fmt.Errorf("server: shape bipartite takes rows/cols, not a community spec")
		}
		if s.Rows == nil || s.Cols == nil || *s.Rows < 1 || *s.Cols < 1 {
			return compiled{}, fmt.Errorf("server: shape bipartite needs rows ≥ 1 and cols ≥ 1")
		}
		ef := s.EdgeFactor
		if ef == 0 {
			ef = 16
		}
		if ef < 0 || ef > math.MaxInt64 / *s.Rows {
			return compiled{}, fmt.Errorf("server: edge factor %d outside [0, 2^63/rows)", ef)
		}
		cfg = community.Bipartite(*s.Rows, *s.Cols, ef**s.Rows, s.MasterSeed)
		cfg.AllowDuplicates = s.AllowDuplicates
	case "community":
		if s.Rows != nil || s.Cols != nil {
			return compiled{}, fmt.Errorf("server: rows/cols belong to shape bipartite")
		}
		if len(s.Community) == 0 {
			return compiled{}, fmt.Errorf("server: shape community needs a community spec")
		}
		if s.EdgeFactor != 0 || s.MasterSeed != 0 || s.AllowDuplicates {
			return compiled{}, fmt.Errorf("server: shape community takes edge_factor, master_seed and allow_duplicates inside the community spec")
		}
		cfg, err = community.ParseSpec(s.Community)
		if err != nil {
			return compiled{}, err
		}
	}
	lay, err := community.New(cfg)
	if err != nil {
		return compiled{}, err
	}
	if lim.maxScale > 0 && lay.NumVertices() > int64(1)<<lim.maxScale {
		return compiled{}, fmt.Errorf("server: %d vertices exceed the server's scale limit %d (2^%d)", lay.NumVertices(), lim.maxScale, lim.maxScale)
	}
	ranges, ids, err := lay.Plan(0)
	if err != nil {
		return compiled{}, err
	}
	return compiled{
		src:         lay,
		ranges:      ranges,
		ids:         ids,
		workers:     workers,
		key:         lay.ArtifactKey(format),
		format:      format,
		hi:          lay.NumVertices(),
		cost:        lay.TotalEdges(),
		scopesTotal: lay.ScopeTotal(),
	}, nil
}

// compileClassic resolves the recursive-vector shape.
func (s JobSpec) compileClassic(lim specLimits) (compiled, error) {
	if s.Rows != nil || s.Cols != nil || len(s.Community) != 0 {
		return compiled{}, fmt.Errorf("server: rows, cols and community need shape bipartite or community")
	}
	if lim.maxScale > 0 && s.Scale > lim.maxScale {
		return compiled{}, fmt.Errorf("server: scale %d exceeds server limit %d", s.Scale, lim.maxScale)
	}
	workers, err := s.compileWorkers(lim)
	if err != nil {
		return compiled{}, err
	}
	// Fields the spec leaves zero keep DefaultConfig's values.
	cfg := core.DefaultConfig(s.Scale)
	cfg.NoiseParam, cfg.Workers, cfg.AllowDuplicates = s.Noise, workers, s.AllowDuplicates
	if s.EdgeFactor != 0 {
		cfg.EdgeFactor = s.EdgeFactor
	}
	if s.MasterSeed != 0 {
		cfg.MasterSeed = s.MasterSeed
	}
	if s.Seed != nil {
		cfg.Seed = skg.Seed{A: s.Seed[0], B: s.Seed[1], C: s.Seed[2], D: s.Seed[3]}
	}
	if err := cfg.Validate(); err != nil {
		return compiled{}, err
	}
	format, err := s.compileFormat()
	if err != nil {
		return compiled{}, err
	}
	lo, hi := int64(0), cfg.NumVertices()
	if s.Lo != nil {
		lo = *s.Lo
	}
	if s.Hi != nil {
		hi = *s.Hi
	}
	if lo < 0 || hi < lo || hi > cfg.NumVertices() {
		return compiled{}, fmt.Errorf("server: range [%d, %d) outside [0, %d)", lo, hi, cfg.NumVertices())
	}
	cost, err := core.EstimateRangeEdges(cfg, lo, hi)
	if err != nil {
		return compiled{}, fmt.Errorf("estimating job cost: %w", err)
	}
	whole := partition.Range{Lo: lo, Hi: hi}
	return compiled{
		src:         cfg,
		ranges:      []partition.Range{whole},
		ids:         []int{0},
		workers:     workers,
		key:         core.PartKey(cfg, format, whole),
		format:      format,
		lo:          lo,
		hi:          hi,
		scale:       cfg.Scale,
		cost:        cost,
		scopesTotal: hi - lo,
	}, nil
}

// Job is one registered generation request. Counters are updated live
// by the streaming goroutine and may be read concurrently.
type Job struct {
	ID   string
	Spec JobSpec

	// Tenant and Class are, with the compiled cost, the job's scheduling
	// identity: the accounting principal from the X-Trilliong-Tenant
	// header and the priority class from the spec.
	Tenant string
	Class  sched.Class

	compiled

	created time.Time

	scopes atomic.Int64
	edges  atomic.Int64
	bytes  atomic.Int64

	mu       sync.Mutex
	state    JobState
	errMsg   string
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
}

// JobStatus is the JSON snapshot served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID          string   `json:"id"`
	State       JobState `json:"state"`
	Tenant      string   `json:"tenant"`
	Class       string   `json:"class"`
	CostEdges   int64    `json:"cost_edges"`
	Scale       int      `json:"scale"`
	Format      string   `json:"format"`
	Lo          int64    `json:"lo"`
	Hi          int64    `json:"hi"`
	ScopesDone  int64    `json:"scopes_done"`
	ScopesTotal int64    `json:"scopes_total"`
	// Progress is ScopesDone/ScopesTotal in [0, 1].
	Progress      float64 `json:"progress"`
	EdgesStreamed int64   `json:"edges_streamed"`
	BytesStreamed int64   `json:"bytes_streamed"`
	Error         string  `json:"error,omitempty"`
	CreatedAt     string  `json:"created_at"`
	ElapsedMS     int64   `json:"elapsed_ms,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	state, errMsg := j.state, j.errMsg
	started, finished := j.started, j.finished
	j.mu.Unlock()
	st := JobStatus{
		ID:            j.ID,
		State:         state,
		Tenant:        j.Tenant,
		Class:         j.Class.String(),
		CostEdges:     j.cost,
		Scale:         j.scale,
		Format:        j.format.String(),
		Lo:            j.lo,
		Hi:            j.hi,
		ScopesDone:    j.scopes.Load(),
		ScopesTotal:   j.scopesTotal,
		EdgesStreamed: j.edges.Load(),
		BytesStreamed: j.bytes.Load(),
		Error:         errMsg,
		CreatedAt:     j.created.UTC().Format(time.RFC3339Nano),
	}
	if st.ScopesTotal > 0 {
		st.Progress = float64(st.ScopesDone) / float64(st.ScopesTotal)
	} else if state == StateDone {
		st.Progress = 1
	}
	if !started.IsZero() {
		end := finished
		if end.IsZero() {
			end = time.Now()
		}
		st.ElapsedMS = end.Sub(started).Milliseconds()
	}
	return st
}

// tryQueue transitions pending → queued, recording the stream's cancel
// function so DELETE can abort the job while it waits for admission. It
// reports the previous state on failure, making the stream endpoint
// one-shot.
func (j *Job) tryQueue(cancel context.CancelFunc) (JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return j.state, false
	}
	j.state = StateQueued
	j.cancel = cancel
	return StateQueued, true
}

// tryRun transitions queued → running once the scheduler granted a
// slot.
func (j *Job) tryRun() (JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return j.state, false
	}
	j.state = StateRunning
	j.started = time.Now()
	return StateRunning, true
}

// unqueue returns a queued job to pending — the admission was rejected
// or shed without the job ever running, so a later stream attempt may
// retry it.
func (j *Job) unqueue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.state = StatePending
		j.cancel = nil
	}
}

// finish records the stream outcome: done on success, canceled when
// the context was cut (client disconnect, DELETE, or server drain),
// failed otherwise.
func (j *Job) finish(err error, ctxErr error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
	case ctxErr != nil:
		j.state = StateCanceled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
}

// Cancel aborts the job: a pending job is marked canceled directly; a
// queued or running one has its stream context cut (the queued waiter's
// admission aborts, the running stream stops; the streaming goroutine
// then records the terminal state). Cancelling a terminal job is a
// no-op.
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	if j.state == StatePending {
		j.state = StateCanceled
		j.errMsg = "canceled before streaming"
		j.finished = time.Now()
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// defaultPendingTTL is how long an untouched pending job may occupy a
// registry slot before eviction may reclaim it.
const defaultPendingTTL = 10 * time.Minute

// registry holds the server's jobs in creation order, bounded by
// maxJobs. When full, the oldest terminal job is evicted to admit a new
// one; failing that, the oldest stale pending job (created more than
// pendingTTL ago, never streamed) is marked canceled and evicted.
// Queued and running jobs are never evicted: a queued job has a live
// waiter inside the scheduler, and evicting it would let a
// dispatched-after-eviction stream run a job the registry no longer
// knows. If every slot holds a live job, admission fails.
type registry struct {
	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string
	nextID     uint64
	maxJobs    int
	pendingTTL time.Duration
	now        func() time.Time // tests substitute
}

func newRegistry(maxJobs int, pendingTTL time.Duration) *registry {
	if maxJobs < 1 {
		maxJobs = 1024
	}
	if pendingTTL <= 0 {
		pendingTTL = defaultPendingTTL
	}
	return &registry{
		jobs:       make(map[string]*Job),
		maxJobs:    maxJobs,
		pendingTTL: pendingTTL,
		now:        time.Now,
	}
}

// add registers a compiled job and assigns its ID.
func (r *registry) add(spec JobSpec, tenant string, class sched.Class, c compiled) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.order) >= r.maxJobs && !r.evictLocked() {
		return nil, fmt.Errorf("server: job registry full (%d live jobs)", len(r.order))
	}
	r.nextID++
	j := &Job{
		ID:       fmt.Sprintf("j%08d", r.nextID),
		Spec:     spec,
		Tenant:   tenant,
		Class:    class,
		compiled: c,
		created:  r.now(),
		state:    StatePending,
	}
	r.jobs[j.ID] = j
	r.order = append(r.order, j.ID)
	return j, nil
}

// evictLocked reclaims one registry slot, reporting success: the oldest
// terminal job if any, else the oldest stale pending job — which is
// marked canceled first, so a stream request already holding the *Job
// fails its pending→queued transition and the evicted job can never be
// dispatched.
func (r *registry) evictLocked() bool {
	for i, id := range r.order {
		if r.jobs[id].State().terminal() {
			delete(r.jobs, id)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	cutoff := r.now().Add(-r.pendingTTL)
	for i, id := range r.order {
		if j := r.jobs[id]; j.created.Before(cutoff) && j.markEvicted() {
			delete(r.jobs, id)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

// markEvicted moves a pending job to canceled for eviction, reporting
// whether it was pending. Queued, running and terminal jobs refuse.
func (j *Job) markEvicted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePending {
		return false
	}
	j.state = StateCanceled
	j.errMsg = "evicted: pending past registry TTL"
	j.finished = time.Now()
	return true
}

// get looks a job up by ID.
func (r *registry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// list snapshots every registered job in creation order.
func (r *registry) list() []JobStatus {
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		jobs = append(jobs, r.jobs[id])
	}
	r.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}
