// Package swarm is the masterless, communication-free distributed
// runtime: elastic workers that generate one graph together without a
// master, leases, or any worker-to-worker messages. It trades the
// fair-queue lease broker of internal/dist — a coordination bottleneck
// and single point of failure at large worker counts — for the insight
// of Funke et al. ("Communication-free Massively Distributed Graph
// Generation"): when every piece of shared state is a pure function of
// the job description, workers have nothing to tell each other.
//
// Everything a worker needs it derives locally or reads off the shared
// output directory (and, optionally, the shared artifact store) — files
// are the whole rendezvous surface:
//
//   - The part plan. PartSource.Plan(parts) is deterministic and, for a
//     classic graph, a closed form that draws nothing, so every worker
//     computes the identical partition from (source, Parts) in
//     microseconds.
//   - Its schedule. One pseudorandom permutation of the part indices,
//     seeded from the job fingerprint and so identical on every worker,
//     rotated to a private starting offset derived from the worker's
//     identity. Workers walk the same cycle from different points.
//   - Who is drawing what. Before it draws a part a worker creates the
//     part's claim marker — part-NNNNN.<ext>.claim.tmp, O_CREATE|O_EXCL,
//     next to the part's final name — and removes it once the part is
//     published. A worker that finds the marker taken does not draw the
//     part and does not stop either: it defers the part and walks on, so
//     the fleet balances itself like a lease queue with nobody handing
//     out leases.
//   - Completion. A part is done exactly when its file exists under
//     its final name (the atomic-publish contract of core's part sinks)
//     or its key is in the shared artifact store. A worker returns only
//     after a full core.MissingParts scan — every present part
//     structurally verified — finds nothing missing.
//
// When its walk ends, the parts a worker deferred are in flight on
// peers. It waits for exactly those, polling their final names at an
// interval proportional to its own work (a fraction of its slowest
// claim), and steals one only when the marker's owner has not changed
// for a patience of max(ScanInterval, a few of its own slowest claims),
// measured on the waiter's own monotonic clock from when it first saw
// that owner — no mtimes, no clocks compared across hosts. The thief
// rewrites the marker in its own name, so other waiters see a live
// owner and restart their patience instead of all stealing at once. A
// dead worker's marker therefore delays the survivors once, bounded; a
// live-but-slow owner costs at most a duplicate, which is harmless:
// generation is deterministic, the publish is an exclusive link (first
// writer wins, exactly), and the loser counts a swarm.claims_lost_total
// and moves on. A worker that dies mid-part leaves its marker and a
// temp file (unique per worker incarnation, so racing writers never
// share one) — both match part-*.tmp, which core.SweepTemps removes —
// and a claim that fails removes its own marker on the way out.
// Workers are therefore stateless and spot/serverless-friendly:
// thousands can join, die and rejoin with zero lease traffic.
//
// Host pressure degrades claim *rate*, not routing: there is no master
// to route around a hot host, so a worker whose pressure controller
// reports elevated/critical pauses before it takes a marker — never
// while holding one — yielding parts to cooler peers while still making
// progress if it is the last worker standing. Output bytes are
// identical at every pressure level.
package swarm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/pressure"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Options configures one swarm worker. Only Parts is mandatory: it
// pins the part-file layout, and every worker of a job must agree on
// it (there is no master to gate registration, so the agreement is by
// convention — the run manifest in the shared directory catches
// mismatches).
type Options struct {
	// Parts is the number of part files the job is split into — the
	// same role as the dist master's Parts, but mandatory here: the
	// plan must be derivable with zero communication, so it cannot
	// depend on who shows up.
	Parts int
	// WorkerID is this worker's identity, the rotation offset of its
	// schedule. Identities only spread workers over the cycle —
	// correctness never depends on them, and claim markers keep even
	// workers sharing one from drawing the same part — so 0 picks a
	// random one.
	WorkerID uint64
	// Threads is the number of parts this worker generates
	// concurrently (0 = 1).
	Threads int
	// ScanInterval is the patience floor: a claim marker whose part has
	// not been published is left to its owner for at least this long
	// (longer when this worker's own claims are slower) before the part
	// is stolen. It also caps the interval at which deferred parts are
	// polled and paces retries of a pass that found nothing it could do
	// (0 = 250ms).
	ScanInterval time.Duration
	// MaxEpochs aborts a worker that is still finding missing parts
	// after this many claim passes — a backstop against an environment
	// where published parts keep vanishing (0 = unbounded).
	MaxEpochs int
	// ThrottleCritical is the pause inserted before each claim while
	// the local host advertises critical pressure; elevated pressure
	// pauses a quarter of it (0 = ScanInterval).
	ThrottleCritical time.Duration
	// Store, when set, is the second rendezvous surface: each claim
	// consults it before generating (a checksum-verified hit
	// materializes the part), and every generated part is ingested so
	// any worker or later run sharing the store skips it. nil keeps
	// the shared directory as the only rendezvous point.
	Store *store.Store
	// Pressure, when set, throttles this worker's claim rate at
	// elevated/critical levels. The caller owns the controller's
	// sampling loop. nil never throttles.
	Pressure *pressure.Controller
	// Telemetry receives the swarm.* series plus the core generation
	// metrics of every claim. nil uses a private registry.
	Telemetry *telemetry.Registry
}

// Summary reports one worker's share of a masterless run. Totals are
// per-worker: summed over all workers of a job, Claimed plus FromCache
// equals Parts (every part is published by exactly one winner) while
// Lost, Skipped, Deferred and Stolen describe the traffic around it.
type Summary struct {
	// Parts is the job-wide part count; WorkerID the identity used.
	Parts    int
	WorkerID uint64
	// Claimed counts parts this worker generated and published first;
	// Lost the generated duplicates that lost the publish;
	// Skipped the parts found published when the walk reached them;
	// FromCache the parts materialized from the artifact store;
	// Verified the present parts structurally verified across scans.
	Claimed, Lost, Skipped, FromCache, Verified int
	// Deferred counts parts passed over because a peer held their claim
	// marker; Stolen the parts drawn although a marker was held, after
	// its owner outlasted this worker's patience.
	Deferred, Stolen int
	// Epochs counts the claim passes this worker executed: 0 means it
	// joined a job that was already complete, 1 a clean run, >1 that a
	// verifying scan found published parts damaged or gone.
	Epochs int
	// Edges and BytesWritten cover what this worker generated,
	// duplicates included.
	Edges        int64
	BytesWritten int64
	// PlanDuration is the local partition-planning time; Waited the
	// time spent waiting on peers' in-flight parts; Elapsed the whole
	// run including scans and waits.
	PlanDuration, Waited, Elapsed time.Duration
}

// nonceCounter disambiguates workers started in the same process and
// nanosecond (in-process tests, forked CLIs).
var nonceCounter atomic.Uint64

// runNonce returns a fresh per-incarnation identity component: unique
// temp-file suffixes must never collide even when two workers are
// deliberately given the same WorkerID.
func runNonce() uint64 {
	return rng.Mix64(uint64(os.Getpid())<<20^nonceCounter.Add(1), uint64(time.Now().UnixNano()))
}

// jobSeed condenses the job identity into the 64-bit seed of the shared
// permutation. Every worker derives it from the same pure inputs, so
// the schedules agree fleet-wide with zero messages.
func jobSeed(fingerprint string, format gformat.Format, parts int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, fingerprint)
	io.WriteString(h, "|")
	io.WriteString(h, format.String())
	fmt.Fprintf(h, "|%d", parts)
	return h.Sum64()
}

// schedule is one worker's walk order: the fleet-shared pseudorandom
// permutation of [0, parts) seeded by seed, rotated to the worker's
// private starting offset. Sharing the cycle while privatizing only the
// offset keeps peers' territory contiguous: a worker that catches up
// with a peer passes over a run of published parts and one held marker,
// then finds untouched parts again.
func schedule(seed, workerID uint64, parts int) []int {
	r := rng.New(seed)
	order := make([]int, parts)
	for i := range order {
		order[i] = i
	}
	for i := parts - 1; i > 0; i-- {
		j := int(r.Int63n(int64(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
	off := int(rng.Mix64(seed, workerID) % uint64(parts))
	return append(order[off:], order[:off]...)
}

// Run executes one masterless swarm worker for any core.PartSource —
// a classic core.Config with its degree-balanced partition, or a
// community layout, whose blocks become the claimable parts: it derives
// the plan and its schedule locally, claims parts until a completion
// scan finds none missing, and returns its share of the run. Any number
// of invocations — in one process or many, started together or hours
// apart — pointed at the same shared dir (and optionally the same
// store) cooperate on one job and converge on the identical file set a
// single-process batch run produces.
func Run(src core.PartSource, dir string, format gformat.Format, opts Options) (Summary, error) {
	if opts.Parts < 1 {
		return Summary{}, fmt.Errorf("swarm: Parts must be pinned (> 0): with no master to gate registration, the plan must not depend on who shows up")
	}
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	if opts.ScanInterval <= 0 {
		opts.ScanInterval = 250 * time.Millisecond
	}
	if opts.ThrottleCritical <= 0 {
		opts.ThrottleCritical = opts.ScanInterval
	}
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.NewRegistry()
	}
	if info, err := os.Stat(dir); err != nil {
		return Summary{}, fmt.Errorf("swarm: shared directory %q not usable: %v", dir, err)
	} else if !info.IsDir() {
		return Summary{}, fmt.Errorf("swarm: shared path %q is not a directory", dir)
	}
	nonce := runNonce()
	if opts.WorkerID == 0 {
		opts.WorkerID = nonce
	}

	start := time.Now()
	planStart := start
	ranges, ids, err := src.Plan(opts.Parts)
	if err != nil {
		return Summary{}, err
	}
	opts.Parts = len(ranges)
	planDur := time.Since(planStart)

	// The manifest is the only shared-state handshake: mismatched
	// configurations against one directory fail here, loudly.
	if err := src.EnsureManifest(dir, format, opts.Parts); err != nil {
		return Summary{}, err
	}

	w := &worker{
		src:    src,
		dir:    dir,
		format: format,
		opts:   opts,
		ranges: ranges,
		ids:    ids,
		order:  schedule(jobSeed(src.Fingerprint(), format, opts.Parts), opts.WorkerID, opts.Parts),
		// Unique per incarnation: the suffix of this worker's temp files
		// (racing writers of one part must never interleave bytes into a
		// shared temp) and the owner name it writes into its markers.
		incarnation: fmt.Sprintf("%016x", nonce),
		tel:         opts.Telemetry,
	}
	sum, err := w.run()
	sum.PlanDuration = planDur
	sum.Elapsed = time.Since(start)
	return sum, err
}

// worker is one Run invocation's state. Counters are atomics because
// Threads claim loops feed them concurrently.
type worker struct {
	src         core.PartSource
	dir         string
	format      gformat.Format
	opts        Options
	ranges      []partition.Range
	ids         []int
	order       []int // positions into ranges/ids, in walk order
	incarnation string
	tel         *telemetry.Registry

	claimed, lost, skipped, fromCache atomic.Int64
	deferred, stolen, verified        atomic.Int64
	edges, bytes                      atomic.Int64
	slowest                           atomic.Int64 // longest own draw, ns
	waited                            time.Duration
	passes                            int // claim passes executed (run loop only)
}

// held is a part this worker passed over because a peer's marker was on
// it: who owned the marker and when this worker first saw that owner.
type held struct {
	pos   int // position into ranges/ids
	owner string
	since time.Time
}

func (w *worker) run() (Summary, error) {
	epochGauge := w.tel.Gauge(MetricEpoch)
	for {
		epochGauge.Set(float64(w.passes))
		missing, err := w.scan()
		if err != nil || len(missing) == 0 {
			return w.summary(), err
		}
		if w.opts.MaxEpochs > 0 && w.passes >= w.opts.MaxEpochs {
			return w.summary(), fmt.Errorf("swarm: parts still missing after %d epochs — published parts are vanishing or MaxEpochs is too low", w.passes)
		}
		w.passes++
		before := w.activity()
		waiting, err := w.walk(missing, nil)
		if err == nil {
			err = w.await(waiting)
		}
		if err != nil {
			return w.summary(), err
		}
		if w.activity() == before {
			// Nothing drawn, nothing deferred: every missing part sits
			// under its final name yet fails verification and cannot be
			// deleted. Verify again no faster than the patience floor.
			time.Sleep(w.opts.ScanInterval)
		}
	}
}

// activity counts what passes accomplish; a pass that leaves it
// unchanged only skipped.
func (w *worker) activity() int64 {
	return w.claimed.Load() + w.lost.Load() + w.fromCache.Load() + w.deferred.Load()
}

// scan is the completion check: the schedule positions of the parts not
// yet published, complete and structurally valid, in walk order. A
// published part needs no claim, so the scan also clears any marker
// still lying next to one (its owner died between publish and unlink,
// or was outrun by a thief).
func (w *worker) scan() ([]int, error) {
	if err := faultpoint.Fire(PointScan); err != nil {
		return nil, err
	}
	scanStart := time.Now()
	_, missingIDs := core.MissingParts(w.dir, w.format, w.ranges, w.ids)
	w.tel.Histogram(MetricScanSeconds).ObserveDuration(time.Since(scanStart))
	present := int64(len(w.ids) - len(missingIDs))
	w.verified.Add(present)
	w.tel.Counter(MetricPartsVerified).Add(present)

	isMissing := make(map[int]bool, len(missingIDs))
	for _, id := range missingIDs {
		isMissing[id] = true
	}
	var missing []int
	for _, pos := range w.order {
		if isMissing[w.ids[pos]] {
			missing = append(missing, pos)
		} else {
			os.Remove(w.markerPath(pos))
		}
	}
	return missing, nil
}

// walk claims the parts at the given schedule positions, Threads at a
// time, and returns the ones it had to defer to a peer's marker. Parts
// in stale are taken over their marker: await names the ones whose owner
// outlasted this worker's patience.
func (w *worker) walk(sched []int, stale map[int]bool) ([]held, error) {
	threads := min(w.opts.Threads, len(sched))
	var (
		cursor  atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		waiting []held
		errs    = make([]error, threads)
		wg      sync.WaitGroup
	)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for !failed.Load() {
				k := int(cursor.Add(1)) - 1
				if k >= len(sched) {
					return
				}
				h, err := w.claim(sched[k], stale[sched[k]])
				if err != nil {
					errs[t] = err
					failed.Store(true)
					return
				}
				if h != nil {
					mu.Lock()
					waiting = append(waiting, *h)
					mu.Unlock()
				}
			}
		}(t)
	}
	wg.Wait()
	return waiting, errors.Join(errs...)
}

// await waits out the parts this worker deferred. They are in flight
// on peers, so it polls only their final names and markers — no
// directory scan — at an interval proportional to its own slowest claim.
// A part whose marker vanished unpublished (its owner failed and let go)
// is claimed at once; one whose marker has named the same owner for a
// whole patience is stolen. Time is the waiter's own monotonic clock
// since it first saw that owner: nothing here reads an mtime or compares
// clocks across hosts.
func (w *worker) await(waiting []held) error {
	if len(waiting) == 0 {
		return nil
	}
	var waited time.Duration
	defer func() {
		w.waited += waited
		w.tel.Histogram(MetricWaitSeconds).ObserveDuration(waited)
	}()
	stale := make(map[int]bool) // the ready parts to take over their marker
	for len(waiting) > 0 {
		tick := time.Now()
		var ready []int
		clear(stale)
		still := waiting[:0]
		for _, h := range waiting {
			if published(w.partPath(h.pos)) {
				continue
			}
			owner, err := os.ReadFile(w.markerPath(h.pos))
			switch {
			case errors.Is(err, fs.ErrNotExist):
				ready = append(ready, h.pos)
			case err != nil:
				return err
			case string(owner) != h.owner:
				// Re-claimed or stolen by a peer: a new owner, a new clock.
				still = append(still, held{pos: h.pos, owner: string(owner), since: tick})
			case tick.Sub(h.since) >= w.patience():
				ready = append(ready, h.pos)
				stale[h.pos] = true
			default:
				still = append(still, h)
			}
		}
		waiting = still
		if len(ready) == 0 && len(waiting) > 0 {
			time.Sleep(w.pollInterval())
		}
		waited += time.Since(tick)
		if len(ready) > 0 {
			again, err := w.walk(ready, stale)
			if err != nil {
				return err
			}
			waiting = append(waiting, again...)
		}
	}
	return nil
}

// pollInterval is how often await looks at its deferred parts: an
// eighth of this worker's slowest claim — peers' parts take about as
// long, so that bounds the idle tail at a fraction of one part — no
// faster than 1ms and no slower than ScanInterval.
func (w *worker) pollInterval() time.Duration {
	return min(max(time.Duration(w.slowest.Load())/8, time.Millisecond), w.opts.ScanInterval)
}

// patience is how long a marker may name the same owner, its part
// unpublished, before await steals the part: ScanInterval, or four of
// this worker's slowest claims if that is longer, so a fleet drawing
// big parts does not mistake a busy peer for a dead one.
func (w *worker) patience() time.Duration {
	return max(w.opts.ScanInterval, 4*time.Duration(w.slowest.Load()))
}

func (w *worker) partPath(pos int) string {
	return core.PartPath(w.dir, w.format, w.ids[pos])
}

// markerPath names a part's claim marker. It sits next to the final
// name and matches part-*.tmp, so core.SweepTemps and every litter
// check that covers temp files cover markers too.
func (w *worker) markerPath(pos int) string {
	return w.partPath(pos) + ".claim.tmp"
}

// published reports presence under the final name, which is proof of
// completeness (atomic-publish contract); scans re-verify everything
// anyway.
func published(final string) bool {
	_, err := os.Stat(final)
	return err == nil
}

// mark takes a part's claim marker for this incarnation: exclusively,
// or with steal over whoever holds it. A marker held by a peer comes
// back as the held record await needs — its owner's name as of now
// (empty while the owner is between creating the marker and signing it,
// or has just let go).
func (w *worker) mark(pos int, steal bool) (*held, error) {
	marker := w.markerPath(pos)
	flag := os.O_WRONLY | os.O_CREATE | os.O_EXCL
	if steal {
		flag = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(marker, flag, 0o644)
	if errors.Is(err, fs.ErrExist) {
		owner, err := os.ReadFile(marker)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return &held{pos: pos, owner: string(owner), since: time.Now()}, nil
	}
	if err != nil {
		return nil, err
	}
	_, err = f.WriteString(w.incarnation)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(marker)
	}
	return nil, err
}

// claim makes the part at pos exist, or reports that a peer is on it:
// skip it if it is published, defer it if a peer holds its marker,
// otherwise take the marker, materialize the part from the store or
// generate and publish it — first writer wins — and let the marker go,
// also when the claim fails.
func (w *worker) claim(pos int, steal bool) (deferred *held, err error) {
	if err := faultpoint.Fire(PointClaim); err != nil {
		return nil, err
	}
	final := w.partPath(pos)
	if published(final) {
		w.skip()
		return nil, nil
	}
	// Yield to cooler peers before taking the marker, never while
	// holding it: a marker held through a pause would park its part.
	w.throttle()
	if h, err := w.mark(pos, steal); err != nil || h != nil {
		if h != nil {
			w.deferred.Add(1)
			w.tel.Counter(MetricClaimsDeferred).Inc()
		}
		return h, err
	}
	defer os.Remove(w.markerPath(pos))
	// An owner publishes and then lets go, so a marker taken after a
	// peer's unlink sees that peer's part here.
	if published(final) {
		w.skip()
		return nil, nil
	}
	if steal {
		w.stolen.Add(1)
		w.tel.Counter(MetricClaimsStolen).Inc()
	}
	// The part executor fetches from the store or generates, publishing
	// with first-writer-wins. Ingest sits outside the atomic sink (the
	// final file must exist before the store copies it); a lost claim
	// ingests the winner's identical bytes, and the store's ingest is
	// idempotent, so the order of winners and losers cannot corrupt the
	// store.
	var lostRace atomic.Bool
	drawStart := time.Now()
	st, err := core.RunParts(w.src, w.dir, w.format, w.ranges[pos:pos+1], w.ids[pos:pos+1], w.opts.Store, w.tel,
		core.PartSinkOptions{
			TmpSuffix:   w.incarnation,
			OnDuplicate: func(int) { lostRace.Store(true) },
		}, nil)
	if err != nil {
		return nil, err
	}
	if st.PartsFromCache > 0 {
		w.fromCache.Add(1)
		w.tel.Counter(MetricStoreHits).Inc()
		return nil, nil
	}
	drew := int64(time.Since(drawStart))
	for old := w.slowest.Load(); drew > old && !w.slowest.CompareAndSwap(old, drew); old = w.slowest.Load() {
	}
	w.edges.Add(st.Edges)
	w.bytes.Add(st.BytesWritten)
	w.tel.Counter(MetricEdges).Add(st.Edges)
	if lostRace.Load() {
		w.lost.Add(1)
		w.tel.Counter(MetricClaimsLost).Inc()
	} else {
		w.claimed.Add(1)
		w.tel.Counter(MetricPartsClaimed).Inc()
	}
	return nil, nil
}

func (w *worker) skip() {
	w.skipped.Add(1)
	w.tel.Counter(MetricPartsSkipped).Inc()
}

// throttle inserts the pressure pause before a claim. With no master
// to route work away from a hot host, the host slows itself down:
// critical pressure pauses a full ThrottleCritical per claim, elevated
// a quarter — enough for cooler peers to take most markers first, while
// a last-worker-standing still finishes the job.
func (w *worker) throttle() {
	if w.opts.Pressure == nil {
		return
	}
	var d time.Duration
	switch w.opts.Pressure.Level() {
	case pressure.Critical:
		d = w.opts.ThrottleCritical
	case pressure.Elevated:
		d = w.opts.ThrottleCritical / 4
	default:
		return
	}
	if d <= 0 {
		return
	}
	w.tel.Counter(MetricThrottleWaits).Inc()
	time.Sleep(d)
}

func (w *worker) summary() Summary {
	return Summary{
		Parts:        w.opts.Parts,
		WorkerID:     w.opts.WorkerID,
		Claimed:      int(w.claimed.Load()),
		Lost:         int(w.lost.Load()),
		Skipped:      int(w.skipped.Load()),
		FromCache:    int(w.fromCache.Load()),
		Verified:     int(w.verified.Load()),
		Deferred:     int(w.deferred.Load()),
		Stolen:       int(w.stolen.Load()),
		Epochs:       w.passes,
		Edges:        w.edges.Load(),
		BytesWritten: w.bytes.Load(),
		Waited:       w.waited,
	}
}

// Store is re-exported so embedders of Run need not import
// internal/store for the option type.
type Store = store.Store
