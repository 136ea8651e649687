// Package core is the TrillionG system of Section 5: it plans an
// AVS-level partition of the vertex space (Figure 6, cut by the closed
// form of the degrees, so nothing is drawn or gathered), generates each
// part's scopes with the recursive vector model (Algorithm 4) on a
// thread per part, up to GOMAXPROCS — sharing the parts' rows a chunk at a
// time, so a part of expensive rows does not idle the rest — and streams each
// part's adjacency lists into its own format writer (TSV, ADJ6 or CSR6):
// no shuffle, no global merge, and O(d_max) working memory per thread.
package core

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/avs"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/telemetry"
)

// Config parameterizes one TrillionG generation run.
type Config struct {
	// Scale is log2|V| (Graph500 terminology).
	Scale int
	// EdgeFactor is |E|/|V| (Graph500 uses 16).
	EdgeFactor int64
	// Seed is the 2x2 probability matrix.
	Seed skg.Seed
	// NoiseParam enables the NSKG model when > 0 (Appendix C).
	NoiseParam float64
	// MasterSeed makes the graph reproducible; the output is a pure
	// function of (Config, MasterSeed) regardless of Workers.
	MasterSeed uint64
	// Workers is the number of parts the vertex space is cut into — the
	// output units: one writer, one part file each (0 = GOMAXPROCS).
	// Threads are scheduling units: one per part, up to GOMAXPROCS, each
	// taking chunks of rows from whichever part has some left, so no
	// thread is bound to a part. The graph does not depend on it.
	Workers int
	// Opts must be recvec.Production() (DefaultConfig sets it); Validate
	// refuses anything else. The ablation variants live in
	// internal/experiments. The field stays only because
	// CacheFingerprint prints it: stream v2 deletes it.
	Opts recvec.Options
	// HighPrecision switches RecVec arithmetic to math/big.Float.
	// Validate refuses it with NoiseParam > 0.
	HighPrecision bool
	// Orientation selects out-edge scopes (AVS-O, the default) or
	// in-edge scopes (AVS-I, Section 3.3). Under AVS-I a scope is a
	// *column* of the adjacency matrix: WriteScope(v, srcs) carries the
	// in-neighbours of v, part files hold in-adjacency lists, and the
	// plan balances expected in-degree.
	Orientation Orientation
	// AllowDuplicates emits raw stochastic trials without in-scope
	// dedup, the Graph500-edge-list semantics the paper contrasts with
	// ("a huge number of repeated edges"). Faster; unrealistic.
	AllowDuplicates bool
}

// Orientation selects the scope axis of Section 3.3.
type Orientation int

const (
	// AVSO scopes are rows: one source vertex and its out-edges.
	AVSO Orientation = iota
	// AVSI scopes are columns: one destination vertex and its in-edges.
	AVSI
)

// String names the orientation.
func (o Orientation) String() string {
	if o == AVSI {
		return "AVS-I"
	}
	return "AVS-O"
}

// DefaultConfig returns the standard Graph500-style configuration at
// the given scale: K = [0.57, 0.19; 0.19, 0.05], |E| = 16·|V|, all
// three performance ideas enabled.
func DefaultConfig(scale int) Config {
	return Config{
		Scale:      scale,
		EdgeFactor: 16,
		Seed:       skg.Graph500Seed,
		MasterSeed: 1,
		Opts:       recvec.Production(),
	}
}

// NumVertices returns |V|.
func (c Config) NumVertices() int64 { return int64(1) << uint(c.Scale) }

// NumEdges returns the target |E|.
func (c Config) NumEdges() int64 { return c.EdgeFactor * c.NumVertices() }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scale < 1 || c.Scale > 47 {
		return fmt.Errorf("core: scale %d outside [1, 47]", c.Scale)
	}
	if c.EdgeFactor < 1 {
		return fmt.Errorf("core: edge factor %d < 1", c.EdgeFactor)
	}
	if c.EdgeFactor > math.MaxInt64>>uint(c.Scale) {
		return fmt.Errorf("core: edge factor %d at scale %d overflows the edge count", c.EdgeFactor, c.Scale)
	}
	if err := c.Seed.Validate(); err != nil {
		return err
	}
	if c.NoiseParam < 0 || c.NoiseParam > skg.MaxNoise(c.Seed) {
		return fmt.Errorf("core: noise %v outside [0, %v]", c.NoiseParam, skg.MaxNoise(c.Seed))
	}
	if c.HighPrecision && c.NoiseParam > 0 {
		// The big.Float vector is built from the plain seed, so its
		// destinations would ignore the noise that sizes the scopes.
		return fmt.Errorf("core: high precision does not support noise (noise %v): use one or the other", c.NoiseParam)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative workers")
	}
	if c.Orientation != AVSO && c.Orientation != AVSI {
		return fmt.Errorf("core: unknown orientation %d", int(c.Orientation))
	}
	if c.Opts != recvec.Production() {
		return fmt.Errorf("core: options %+v: only recvec.Production() generates", c.Opts)
	}
	return nil
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports a completed run.
type Stats struct {
	// Scopes is the number of source rows drawn and written, empty ones
	// included.
	Scopes int64
	// Edges is the number of edges generated (and written).
	Edges int64
	// Attempts counts stochastic trials including in-scope duplicates.
	Attempts int64
	// MaxDegree is the largest generated out-degree.
	MaxDegree int64
	// PeakWorkerBytes is the largest tracked working set of any scope
	// (dedup set + RecVec) — the O(d_max) of Table 1 — whichever thread
	// drew it.
	PeakWorkerBytes int64
	// BytesWritten sums the writers' outputs.
	BytesWritten int64
	// PlanDuration is the Figure 6 planning time; GenDuration the
	// generation+write time; Elapsed their sum.
	PlanDuration, GenDuration, Elapsed time.Duration
	// PartsFromCache counts parts satisfied from an artifact store
	// instead of generated (ResumeToDirStore and the cache-aware
	// distributed workers).
	PartsFromCache int
	// Ranges is the executed partition.
	Ranges []partition.Range
}

// SinkFactory supplies one writer per part (`worker` is the part's
// position). It is called before any part draws, in part order. A
// part's writer is called from one goroutine at a time — its scopes in
// row order, then Close — but not always the same goroutine: whichever
// thread holds the head of the part writes.
type SinkFactory func(worker int, r partition.Range) (gformat.Writer, error)

// DiscardSinks returns a factory of counting no-op writers in the given
// format (for experiments that only need timing and counts).
func DiscardSinks(format gformat.Format) SinkFactory {
	return func(int, partition.Range) (gformat.Writer, error) {
		return gformat.NewDiscardWriter(format), nil
	}
}

// FileSinks writes one part file per worker into dir, named
// part-<worker>.<ext>, in place: no temp and rename, no manifest. It
// serves benchmarks and tests; a run into a directory is ResumeParts.
// CSR6 part files carry the global vertex count so they can be read
// independently.
func FileSinks(dir string, format gformat.Format, numVertices int64) SinkFactory {
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		f, err := os.Create(PartPath(dir, format, worker))
		if err != nil {
			return nil, err
		}
		w, err := gformat.NewWriter(f, format, numVertices)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &closerWriter{Writer: w, f: f}, nil
	}
}

type closerWriter struct {
	gformat.Writer
	f *os.File
}

func (c *closerWriter) Close() error {
	if err := c.Writer.Close(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// ScopeFunc receives generated scopes when using CallbackSinks.
type ScopeFunc func(src int64, dsts []int64) error

// CallbackSinks adapts a function into sinks. The function is called
// from multiple workers under a mutex, so it may keep plain state.
func CallbackSinks(fn ScopeFunc) SinkFactory {
	var mu sync.Mutex
	return func(int, partition.Range) (gformat.Writer, error) {
		return &callbackWriter{fn: fn, mu: &mu}, nil
	}
}

type callbackWriter struct {
	fn    ScopeFunc
	mu    *sync.Mutex
	edges int64
}

func (c *callbackWriter) WriteScope(src int64, dsts []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.edges += int64(len(dsts))
	return c.fn(src, dsts)
}

func (c *callbackWriter) Close() error        { return nil }
func (c *callbackWriter) BytesWritten() int64 { return 0 }
func (c *callbackWriter) EdgesWritten() int64 { return c.edges }

// model returns the seed and NSKG noise (nil without noise) of the
// configuration's row scopes, the noise reconstructed deterministically
// from the master seed. The generator and the closed form both take them
// from here, so they cannot drift apart.
func (c Config) model() (skg.Seed, *skg.Noise, error) {
	seed := c.Seed
	var noise *skg.Noise
	if c.NoiseParam > 0 {
		var err error
		noise, err = skg.NewNoise(c.Seed, c.Scale, c.NoiseParam, rng.New(rng.Mix64(c.MasterSeed, 0xBE5)))
		if err != nil {
			return skg.Seed{}, nil, err
		}
	}
	if c.Orientation == AVSI {
		// A column scope of K is a row scope of K^T; the noise (drawn
		// identically either way) transposes with it.
		seed = seed.Transpose()
		if noise != nil {
			noise = noise.Transpose()
		}
	}
	return seed, noise, nil
}

// NewScopeGenerator builds the AVS generator for a configuration.
// acct may be nil. It is exported within the module for the distributed
// runtime and the experiment harness.
func NewScopeGenerator(cfg Config, acct *memacct.Acct) (*avs.Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seed, noise, err := cfg.model()
	if err != nil {
		return nil, err
	}
	return avs.New(avs.Config{
		Seed:            seed,
		Levels:          cfg.Scale,
		NumEdges:        cfg.NumEdges(),
		Noise:           noise,
		HighPrecision:   cfg.HighPrecision,
		AllowDuplicates: cfg.AllowDuplicates,
	}, acct)
}

// Plan cuts the vertex space [0, |V|) into exactly `parts` contiguous
// ranges of near-equal expected edges. It is Figure 6 with a closed
// form in place of the drawn degrees, so there is nothing to combine or
// gather: cut i ends at the row boundary whose prefix of rowEdges —
// Theorem 1's mean, NSKG noise included — is nearest the proportional
// target (i+1)·|E|/parts, found by cutRows in O(Scale · log|V|) —
// microseconds a cut, at any scale. A row heavier than a part's share is
// a part of its own, and parts beyond the rows (or beside a hub row) are
// empty; Range.Edges is the rounded expectation. The plan is a pure
// function of (cfg, parts), so a distributed master, its workers and
// every swarm worker agree on it without shipping anything.
func Plan(cfg Config, parts int) ([]partition.Range, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if parts < 1 {
		return nil, fmt.Errorf("core: parts %d < 1", parts)
	}
	edges, nv := cfg.rowEdges(), cfg.NumVertices()
	ranges := make([]partition.Range, parts)
	var lo int64
	for i := range ranges {
		hi := nv
		if i < parts-1 {
			target := float64(cfg.NumEdges()) * float64(i+1) / float64(parts)
			// The last boundary at or below the target (or row 1, if the
			// first row alone is over it), then whichever neighbour is nearer.
			hi = cutRows(edges, 0, nv, target)
			if hi < nv && edges(0, hi+1)-target < target-edges(0, hi) {
				hi++
			} else if hi == 1 && target < edges(0, 1)-target {
				hi = 0
			}
			hi = max(hi, lo)
		}
		ranges[i] = partition.Range{Lo: lo, Hi: hi, Edges: int64(math.Round(edges(lo, hi)))}
		lo = hi
	}
	return ranges, nil
}

// Generate runs the full TrillionG pipeline: plan, then parallel scope
// generation into the sinks.
func Generate(cfg Config, sinks SinkFactory) (Stats, error) {
	return GenerateObserved(cfg, sinks, nil)
}

// GenerateObserved is Generate feeding the given telemetry registry:
// the plan, RecVec-build, scope-draw and sink-write stages plus the
// run-wide scope/edge/attempt counters (see docs/OBSERVABILITY.md for
// the catalog). A nil registry disables instrumentation entirely.
func GenerateObserved(cfg Config, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	planStart := time.Now()
	ranges, ids, err := cfg.Plan(cfg.workers())
	if err != nil {
		return Stats{}, err
	}
	planDur := time.Since(planStart)
	if tel != nil {
		tel.Stage(StagePlan).Observe(planDur, int64(len(ranges)))
	}
	st, err := GenerateParts(cfg, ranges, ids, sinks, tel)
	st.PlanDuration = planDur
	st.Elapsed = planDur + st.GenDuration
	return st, err
}

// GenerateRanges generates exactly the given vertex ranges, one part
// per range, into the sinks. It is the execution half of
// Generate, split out so a caller can run a plan it computed itself.
func GenerateRanges(cfg Config, ranges []partition.Range, sinks SinkFactory) (Stats, error) {
	// Validate before GenerateParts opens the first sink: a bad
	// configuration must not leave files behind.
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	return GenerateParts(cfg, ranges, seqIDs(len(ranges)), sinks, nil)
}

// GenerateSeq is the single-threaded entry point (TrillionG/seq of
// Figure 11a): identical output, Workers forced to 1.
func GenerateSeq(cfg Config, sinks SinkFactory) (Stats, error) {
	cfg.Workers = 1
	return Generate(cfg, sinks)
}
