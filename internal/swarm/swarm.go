// Package swarm is the masterless, communication-free distributed
// runtime: elastic workers that generate one graph together without a
// master, leases, or any worker-to-worker messages. It trades the
// fair-queue lease broker of internal/dist — a coordination bottleneck
// and single point of failure at large worker counts — for the insight
// of Funke et al. ("Communication-free Massively Distributed Graph
// Generation"): when every piece of shared state is a pure function of
// the job description, workers have nothing to tell each other.
//
// Everything a worker needs it derives locally:
//
//   - The part plan. PartSource.Plan(parts) is deterministic, so every
//     worker computes the identical partition from (source, Parts).
//   - Its schedule. Each epoch has a pseudorandom permutation of the
//     part indices seeded from (job fingerprint, epoch) — identical on
//     every worker — rotated to a private starting offset derived from
//     the worker's identity. Distinct workers therefore walk disjoint
//     prefixes of the same cycle and rarely collide.
//   - Completion. A part is done exactly when its file exists under
//     its final name in the shared output directory (the atomic-rename
//     contract of core.AtomicPartSinks) or its key is in the shared
//     artifact store. core.MissingParts scans are the only
//     "coordination" that ever happens.
//
// Claims are idempotent because generation is deterministic: if two
// workers race on a part, both produce bit-identical bytes, the first
// atomic rename (or store ingest) wins, and the loser counts a
// swarm.claims_lost_total and moves on. A worker that dies mid-part
// leaves only temp-file litter (unique per worker incarnation, so
// racing writers never share a temp); the part stays missing, a
// survivor's next scan finds it, and the survivors advance to the next
// epoch, whose fresh permutation converges everyone onto the remaining
// parts — work stealing with no messages. Workers are therefore
// stateless and spot/serverless-friendly: thousands can join, die and
// rejoin with zero lease traffic, rendezvousing purely through the
// filesystem/store.
//
// Host pressure degrades claim *rate*, not routing: there is no master
// to route around a hot host, so a worker whose pressure controller
// reports elevated/critical inserts pauses between its own claims,
// yielding parts to cooler peers while still making progress if it is
// the last worker standing. Output bytes are identical at every
// pressure level.
package swarm

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
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
	// epoch schedules. Identities only steer collision avoidance —
	// correctness never depends on them — so 0 picks a random one.
	// Distinct workers should use distinct identities; two workers
	// sharing one simply duplicate each other's walk.
	WorkerID uint64
	// Threads is the number of parts this worker generates
	// concurrently (0 = 1).
	Threads int
	// ScanInterval paces the straggler machinery: a worker that finds
	// missing parts after its own pass waits this long for in-flight
	// peer renames to land before stealing (0 = 250ms).
	ScanInterval time.Duration
	// MaxEpochs aborts a worker that is still finding missing parts
	// after this many epochs — a backstop against an environment where
	// published parts keep vanishing (0 = unbounded).
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
// per-worker: summed over all workers of a job, Claimed equals Parts
// (every part is published by exactly one winner) while Lost, Skipped
// and FromCache describe the collision and cache traffic.
type Summary struct {
	// Parts is the job-wide part count; WorkerID the identity used.
	Parts    int
	WorkerID uint64
	// Claimed counts parts this worker generated and published first;
	// Lost the generated duplicates that lost the publish race;
	// Skipped the claim-time skips (peer published while we walked);
	// FromCache the parts materialized from the artifact store;
	// Verified the present parts structurally verified across scans.
	Claimed, Lost, Skipped, FromCache, Verified int
	// Epochs counts the claim-pass epochs this worker executed: 0
	// means it joined a job that was already complete, 1 a clean
	// single-pass run, >1 that collisions or stragglers forced it into
	// later epochs (message-free work stealing).
	Epochs int
	// Edges and BytesWritten cover what this worker generated,
	// duplicates included.
	Edges        int64
	BytesWritten int64
	// PlanDuration is the local partition-planning time; Elapsed the
	// whole run including scans and settle waits.
	PlanDuration, Elapsed time.Duration
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

// jobSeed condenses the job identity into the 64-bit seed of the epoch
// permutations. Every worker derives it from the same pure inputs, so
// the per-epoch schedules agree fleet-wide with zero messages.
func jobSeed(fingerprint string, format gformat.Format, parts int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, fingerprint)
	io.WriteString(h, "|")
	io.WriteString(h, format.String())
	fmt.Fprintf(h, "|%d", parts)
	return h.Sum64()
}

// epochOrder is epoch e's schedule for one worker: the fleet-shared
// pseudorandom permutation of [0, parts) seeded by (seed, epoch),
// rotated to the worker's private starting offset. Sharing the base
// permutation while privatizing only the offset is what makes prefixes
// disjoint: workers walk the same cycle starting at different points,
// so until the fleet wraps around, no two cover the same part.
func epochOrder(seed, workerID uint64, epoch, parts int) []int {
	r := rng.New(rng.Mix64(seed, uint64(epoch)))
	order := make([]int, parts)
	for i := range order {
		order[i] = i
	}
	for i := parts - 1; i > 0; i-- {
		j := int(r.Int63n(int64(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
	off := int(rng.Mix64(rng.Mix64(seed, workerID), uint64(epoch)) % uint64(parts))
	rot := make([]int, 0, parts)
	rot = append(rot, order[off:]...)
	rot = append(rot, order[:off]...)
	return rot
}

// Run executes one masterless swarm worker for any core.PartSource —
// a classic core.Config with its degree-balanced partition, or a
// community layout, whose blocks become the claimable parts: it derives
// the plan and its schedules locally, claims parts until a completion
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
		seed:   jobSeed(src.Fingerprint(), format, opts.Parts),
		// Unique temp suffix per incarnation: racing claimants of one
		// part must never interleave writes into a shared temp file.
		tmpSuffix: fmt.Sprintf("%016x", nonce),
		tel:       opts.Telemetry,
	}
	sum, err := w.run()
	sum.PlanDuration = planDur
	sum.Elapsed = time.Since(start)
	return sum, err
}

// worker is one Run invocation's state. Counters are atomics because
// Threads claim loops feed them concurrently.
type worker struct {
	src       core.PartSource
	dir       string
	format    gformat.Format
	opts      Options
	ranges    []partition.Range
	ids       []int
	seed      uint64
	tmpSuffix string
	tel       *telemetry.Registry

	claimed, lost, skipped, fromCache atomic.Int64
	verified                          atomic.Int64
	edges, bytes                      atomic.Int64
	passes                            int // claim-pass epochs executed (run loop only)
}

func (w *worker) run() (Summary, error) {
	ids := w.ids
	epochGauge := w.tel.Gauge(MetricEpoch)
	for epoch := 0; ; epoch++ {
		if w.opts.MaxEpochs > 0 && epoch >= w.opts.MaxEpochs {
			return w.summary(), fmt.Errorf("swarm: parts still missing after %d epochs — published parts are vanishing or MaxEpochs is too low", epoch)
		}
		epochGauge.Set(float64(epoch))
		missing, missingIDs, err := w.scan(ids)
		if err != nil {
			return w.summary(), err
		}
		if w.passes > 0 && len(missingIDs) > 0 {
			// Straggler territory. The missing parts may be in flight
			// on live peers; give their renames one scan interval to
			// land before stealing, so a healthy-but-slow fleet is not
			// drowned in duplicates.
			time.Sleep(w.opts.ScanInterval)
			missing, missingIDs, err = w.scan(ids)
			if err != nil {
				return w.summary(), err
			}
		}
		if len(missingIDs) == 0 {
			return w.summary(), nil
		}
		w.passes++
		if err := w.claimPass(epoch, missing, missingIDs); err != nil {
			return w.summary(), err
		}
	}
}

// scan is the completion check: which parts are not yet published,
// complete and structurally valid, in the shared directory. It is the
// only rendezvous read the swarm performs.
func (w *worker) scan(ids []int) ([]partition.Range, []int, error) {
	if err := faultpoint.Fire(PointScan); err != nil {
		return nil, nil, err
	}
	scanStart := time.Now()
	missing, missingIDs := core.MissingParts(w.dir, w.format, w.ranges, ids)
	w.tel.Histogram(MetricScanSeconds).ObserveDuration(time.Since(scanStart))
	present := int64(len(ids) - len(missingIDs))
	w.verified.Add(present)
	w.tel.Counter(MetricPartsVerified).Add(present)
	return missing, missingIDs, nil
}

// claimPass walks this epoch's schedule over the scan's missing parts,
// claiming each until the walk runs into territory a peer covered: the
// first part that turned up complete *since the scan* stops the pass,
// because from there on the walk would mostly duplicate a live peer's
// work. The next scan decides what, if anything, is genuinely left.
// A pass with zero claims still terminates the run eventually: a
// claim-time skip proves another worker made progress in the window.
func (w *worker) claimPass(epoch int, missing []partition.Range, missingIDs []int) error {
	byID := make(map[int]partition.Range, len(missingIDs))
	for i, id := range missingIDs {
		byID[id] = missing[i]
	}
	sched := make([]int, 0, len(missingIDs))
	for _, pos := range epochOrder(w.seed, w.opts.WorkerID, epoch, w.opts.Parts) {
		id := w.ids[pos]
		if _, ok := byID[id]; ok {
			sched = append(sched, id)
		}
	}

	threads := min(w.opts.Threads, len(sched))
	var cursor atomic.Int64
	var stop atomic.Bool
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for !stop.Load() {
				k := int(cursor.Add(1)) - 1
				if k >= len(sched) {
					return
				}
				id := sched[k]
				collided, err := w.claim(id, byID[id])
				if err != nil {
					errs[t] = err
					stop.Store(true)
					return
				}
				if collided {
					stop.Store(true)
					return
				}
			}
		}(t)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// claim makes part id exist: skip if a peer published it meanwhile,
// materialize from the store on a hit, otherwise generate it and
// publish via atomic rename — first writer wins. collided reports a
// claim-time skip, the signal that the walk has caught up with a peer.
func (w *worker) claim(id int, r partition.Range) (collided bool, err error) {
	w.throttle()
	if err := faultpoint.Fire(PointClaim); err != nil {
		return false, err
	}
	final := core.PartPath(w.dir, w.format, id)
	// Presence recheck: presence under the final name is proof of
	// completeness (atomic-rename contract), so no structural check
	// here — scans re-verify everything anyway.
	if _, err := os.Stat(final); err == nil {
		w.skipped.Add(1)
		w.tel.Counter(MetricPartsSkipped).Inc()
		return true, nil
	}
	// The part executor fetches from the store or generates, publishing
	// with first-writer-wins. Ingest sits outside the atomic sink (the
	// final file must exist before the store reads it); a lost claim
	// ingests the winner's identical bytes, and Store.IngestFile is
	// idempotent, so the order of winners and losers cannot corrupt the
	// store.
	var lostRace atomic.Bool
	st, err := core.RunParts(w.src, w.dir, w.format, []partition.Range{r}, []int{id}, w.opts.Store, w.tel,
		core.PartSinkOptions{
			TmpSuffix:   w.tmpSuffix,
			OnDuplicate: func(int) { lostRace.Store(true) },
		}, nil)
	if err != nil {
		return false, err
	}
	if st.PartsFromCache > 0 {
		w.fromCache.Add(1)
		w.tel.Counter(MetricStoreHits).Inc()
		return false, nil
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
	return false, nil
}

// throttle inserts the pressure pause before a claim. With no master
// to route work away from a hot host, the host slows itself down:
// critical pressure pauses a full ThrottleCritical per claim, elevated
// a quarter — enough for cooler peers to win most races, while a
// last-worker-standing still finishes the job.
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
		Epochs:       w.passes,
		Edges:        w.edges.Load(),
		BytesWritten: w.bytes.Load(),
	}
}

// Store is re-exported so embedders of Run need not import
// internal/store for the option type.
type Store = store.Store
