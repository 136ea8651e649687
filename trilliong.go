// Package trilliong is a Go implementation of TrillionG (Park & Kim,
// SIGMOD 2017), a scalable synthetic graph generator based on the
// recursive vector model.
//
// TrillionG generates RMAT/Kronecker-style scale-free graphs one source
// vertex (one "scope") at a time: the vertex's out-degree is drawn from
// Theorem 1's normal approximation, and each destination is recovered
// from a single uniform random value using a precomputed O(log|V|)
// recursive vector. Working memory is O(d_max) per worker — not O(|E|)
// as in RMAT — so scale is bounded by disk, not RAM.
//
// Quick start:
//
//	cfg := trilliong.New(20)            // Scale 20: 2^20 vertices, 16·2^20 edges
//	stats, err := cfg.GenerateToDir("out", trilliong.ADJ6)
//
// The generated graph is a pure function of (Config, MasterSeed): any
// worker count yields bit-identical output.
//
// Rich, schema-driven graphs (multiple node types, edge predicates,
// independent in-/out-degree distributions) are generated through the
// extended recursive vector model; see Schema and BibliographySchema.
package trilliong

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/pressure"
	"repro/internal/recvec"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/skg"
	"repro/internal/store"
	"repro/internal/store/s3"
	"repro/internal/swarm"
	"repro/internal/telemetry"
)

// Seed is the 2x2 stochastic seed matrix [A B; C D] (α, β, γ, δ in the
// paper). Entries must be non-negative and sum to 1.
type Seed = skg.Seed

// Graph500Seed is the standard benchmark seed [0.57, 0.19; 0.19, 0.05].
var Graph500Seed = skg.Graph500Seed

// UniformSeed is the Erdős–Rényi seed [0.25, 0.25; 0.25, 0.25].
var UniformSeed = skg.UniformSeed

// Format selects an output file format.
type Format = gformat.Format

// Output formats supported by the generator (Section 5): the text edge
// list, the 6-byte binary adjacency list, and the 6-byte CSR image.
const (
	TSV  = gformat.TSV
	ADJ6 = gformat.ADJ6
	CSR6 = gformat.CSR6
)

// Config configures one generation run. The zero value is not usable;
// start from New.
type Config struct {
	// Scale is log2 of the vertex count.
	Scale int
	// EdgeFactor is |E| / |V| (16 in Graph500 and the paper).
	EdgeFactor int64
	// Seed is the stochastic seed matrix.
	Seed Seed
	// NoiseParam > 0 enables the NSKG noisy model, which removes the
	// oscillation of plain SKG degree plots. 0.1 is the standard value;
	// the admissible maximum is min((A+D)/2, B).
	NoiseParam float64
	// MasterSeed selects the pseudo-random universe. Same seed, same
	// graph — regardless of Workers.
	MasterSeed uint64
	// Workers is the number of parts, one part file each (0 =
	// GOMAXPROCS). A thread per part, up to GOMAXPROCS, draws them; the
	// threads share the parts' rows, so none is bound to a part.
	Workers int
	// HighPrecision switches the recursive vector to 128-bit floats,
	// the paper's BigDecimal mode for trillion-scale accuracy. Validate
	// refuses it with NoiseParam > 0.
	HighPrecision bool
	// Orientation selects out-edge scopes (AVSO, default: scopes are
	// source vertices with out-adjacency) or in-edge scopes (AVSI:
	// scopes are destination vertices with in-adjacency, so part files
	// hold in-adjacency lists). Section 3.3 of the paper.
	Orientation Orientation
	// AllowDuplicates skips duplicate elimination, emitting raw
	// stochastic trials (Graph500-edge-list semantics — faster but
	// unrealistic; the paper's realism claim rests on deduping).
	AllowDuplicates bool
}

// Orientation selects the scope axis (Section 3.3).
type Orientation = core.Orientation

// Scope orientations.
const (
	AVSO = core.AVSO
	AVSI = core.AVSI
)

// New returns the standard configuration at the given scale:
// Graph500 seed, edge factor 16, master seed 1.
func New(scale int) Config {
	c := core.DefaultConfig(scale)
	return Config{
		Scale:      c.Scale,
		EdgeFactor: c.EdgeFactor,
		Seed:       c.Seed,
		MasterSeed: c.MasterSeed,
	}
}

func (c Config) toCore() core.Config {
	return core.Config{
		Scale:           c.Scale,
		EdgeFactor:      c.EdgeFactor,
		Seed:            c.Seed,
		NoiseParam:      c.NoiseParam,
		MasterSeed:      c.MasterSeed,
		Workers:         c.Workers,
		Opts:            recvec.Production(),
		HighPrecision:   c.HighPrecision,
		Orientation:     c.Orientation,
		AllowDuplicates: c.AllowDuplicates,
	}
}

// Validate reports configuration problems.
func (c Config) Validate() error { return c.toCore().Validate() }

// NumVertices returns |V| = 2^Scale.
func (c Config) NumVertices() int64 { return c.toCore().NumVertices() }

// NumEdges returns the target edge count |E| = EdgeFactor · |V|.
func (c Config) NumEdges() int64 { return c.toCore().NumEdges() }

// Stats reports a completed run; see the field docs in internal/core.
type Stats = core.Stats

// GenerateToDir writes the graph into dir as one part file per worker
// (part-00000.<ext>, ...) in the given format and returns run
// statistics. The directory must exist. The run is resumable: each
// part file is written to a temp and renamed into place when complete,
// and the directory records the run's manifest, so calling again with
// the same configuration finishes an interrupted run — or, on a
// finished one, writes nothing — while a different configuration (one
// that cuts other parts) is refused with the directory left as it was,
// as is a directory holding part files but no manifest. Stats covers
// only the parts this call wrote.
func (c Config) GenerateToDir(dir string, format Format) (Stats, error) {
	return c.ResumeToDirCached(dir, format, nil)
}

// Store is a crash-safe content-addressed artifact store caching
// generated parts; see docs/STORE.md. Because the graph is a pure
// function of (Config, MasterSeed), any run — batch, distributed or
// server — can satisfy its parts from a store another run populated.
type Store = store.Store

// StoreOptions configures OpenStore; see internal/store.Options.
type StoreOptions = store.Options

// OpenStore opens (creating if needed) the artifact store rooted at
// dir.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	return store.Open(dir, opts)
}

// StoreBackend is a pluggable cold tier behind a Store: evicted
// entries demote into it instead of being deleted, and local misses
// fall through to it. See internal/store.Backend and docs/STORE.md.
type StoreBackend = store.Backend

// OpenStoreBackend resolves a -remote-store spec into a cold-tier
// backend:
//
//	s3://bucket[/prefix]?endpoint=URL[&region=R][&access-key=K&secret-key=S]
//
// dials an S3-compatible object store (credentials fall back to
// AWS_ACCESS_KEY_ID / AWS_SECRET_ACCESS_KEY; absent means anonymous
// requests). Any other non-empty spec is taken as a directory path —
// an NFS export or shared scratch disk. tel receives the backend's
// store.remote.* transport metrics and may be nil; spec "" returns
// (nil, nil), keeping the store single-tier.
func OpenStoreBackend(spec string, tel *telemetry.Registry) (StoreBackend, error) {
	if spec == "" {
		return nil, nil
	}
	if strings.HasPrefix(spec, "s3://") {
		return s3.Open(spec, tel)
	}
	return store.NewDirBackend(spec)
}

// ResumeToDirCached is GenerateToDir backed by an artifact store: parts
// whose keys are cached are materialized from the store
// (checksum-verified) instead of regenerated, and generated parts are
// ingested for the next run. Stats.PartsFromCache reports the hits. A
// nil store is GenerateToDir.
func (c Config) ResumeToDirCached(dir string, format Format, st *Store) (Stats, error) {
	return core.ResumeToDirStore(c.toCore(), dir, format, st)
}

// GenerateFunc streams every generated scope (source vertex and its
// distinct destinations) to fn instead of writing files. fn is called
// from multiple workers under a mutex; the dsts slice is only valid for
// the duration of the call.
func (c Config) GenerateFunc(fn func(src int64, dsts []int64) error) (Stats, error) {
	return core.Generate(c.toCore(), core.CallbackSinks(fn))
}

// Count generates the graph without materializing it anywhere, charging
// only the byte cost of the given format. Useful for capacity planning
// and benchmarks.
func (c Config) Count(format Format) (Stats, error) {
	return core.Generate(c.toCore(), core.DiscardSinks(format))
}

// SizeEstimate predicts output volume analytically (no generation);
// see internal/core.EstimateSize.
type SizeEstimate = core.SizeEstimate

// EstimateSize predicts the file volume of this configuration in the
// given format in O(Scale²) arithmetic — e.g. the paper's Scale-38
// numbers (≈90 TB TSV, ≈25 TB ADJ6) take microseconds to compute.
func (c Config) EstimateSize(format Format) (SizeEstimate, error) {
	return core.EstimateSize(c.toCore(), format)
}

// StreamStats reports one completed stream; see the field docs in
// internal/server.
type StreamStats = server.StreamStats

// StreamOptions tunes StreamRange; see internal/server.
type StreamOptions = server.StreamOptions

// StreamRange streams the vertex range [lo, hi) of the graph into w in
// the given format (TSV or ADJ6; CSR6 needs a seekable sink and cannot
// stream). The bytes are identical to the corresponding slice of the
// part files GenerateToDir writes for the same (Config, MasterSeed):
// scopes appear in vertex order, encoded exactly as the batch writers
// encode them. The stream is the range as one part, run by the batch
// executor's chunk scheduler in order (core.StreamParts): the workers
// share its rows a chunk at a time, chunks drawn ahead of the writer
// wait in a bounded window, so a slow w throttles generation and memory
// stays O(Workers · d_max) regardless of range size; cancelling ctx
// aborts the stream.
func (c Config) StreamRange(ctx context.Context, w io.Writer, format Format, lo, hi int64) (StreamStats, error) {
	return c.StreamRangeOpts(ctx, w, format, lo, hi, StreamOptions{})
}

// StreamRangeOpts is StreamRange with an explicit worker count.
func (c Config) StreamRangeOpts(ctx context.Context, w io.Writer, format Format, lo, hi int64, opt StreamOptions) (StreamStats, error) {
	return server.StreamRange(ctx, c.toCore(), format, lo, hi, w, opt)
}

// Server is the embeddable generation service: an HTTP API (job
// registry, streaming endpoints, live expvar metrics) over the
// generator. See docs/SERVER.md for the API reference.
type Server = server.Server

// ServerOptions configures NewServer; see internal/server.Options.
type ServerOptions = server.Options

// JobSpec is the generation request accepted by the service's
// POST /v1/jobs endpoint.
type JobSpec = server.JobSpec

// TenantLimits bounds one tenant's share of the service's scheduler:
// fair-share weight, token-bucket rate limit, concurrency quota and
// queue bounds. See internal/sched.Limits and docs/SCHED.md.
type TenantLimits = sched.Limits

// ParseTenantSpec parses a "name[,key=value...]" tenant limit spec —
// the trilliong-serve -tenant flag syntax, e.g.
// "alice,weight=3,rate=1e6,max-active=2". See internal/sched.
func ParseTenantSpec(spec string) (string, TenantLimits, error) {
	return sched.ParseTenantSpec(spec)
}

// ParseTenantLimits parses a bare "key=value,..." limit list (the
// -tenant-defaults flag syntax; "" yields scheduler defaults).
func ParseTenantLimits(s string) (TenantLimits, error) {
	return sched.ParseLimits(s)
}

// NewServer builds a generation service. Mount its Handler on an
// http.Server; call Shutdown to drain gracefully.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// SwarmOptions configures one masterless swarm worker: the pinned
// part count, worker identity, claim concurrency, scan pacing and the
// optional store/pressure/telemetry hookups. See internal/swarm.
type SwarmOptions = swarm.Options

// SwarmSummary reports one swarm worker's share of a masterless run
// (parts claimed/lost/skipped/cached, claim epochs, edges generated).
type SwarmSummary = swarm.Summary

// SwarmRun executes one masterless swarm worker against the shared
// directory dir: no master, no leases, no messages. The worker derives
// the plan and its walk order — heaviest part first, the same on every
// worker — purely from (Config, opts.Parts), claims each part through
// a marker file, publishes parts via atomic rename —
// racing duplicates are bit-identical, first writer wins — and
// repeatedly scans dir until no part is missing. Any number of
// SwarmRun invocations (processes or goroutines, started together or
// hours apart, freely killable) pointed at the same dir cooperate on
// one job and converge on exactly the file set GenerateToDir produces.
// opts.Parts must be pinned (> 0) and identical across the fleet; see
// docs/DIST.md for the failure model.
func (c Config) SwarmRun(dir string, format Format, opts SwarmOptions) (SwarmSummary, error) {
	return swarm.Run(c.toCore(), dir, format, opts)
}

// PressureConfig tunes the host-pressure controller: sampling
// interval, memory budget and watched disk path; the classification
// thresholds are fixed. The zero value is serviceable (auto-detected
// budget). See internal/pressure and docs/PRESSURE.md.
type PressureConfig = pressure.Config

// PressureController samples host signals (load, RSS, disk, goroutine
// and FD counts) and classifies them into ok/elevated/critical with
// hysteresis. ServerOptions.EnablePressure builds one into a server;
// a dist worker advertises one's level through its heartbeats.
type PressureController = pressure.Controller

// NewPressureController builds a controller; call Start to begin
// background sampling (it returns the stop function).
func NewPressureController(cfg PressureConfig) *PressureController { return pressure.New(cfg) }

// MaxNoise returns the largest admissible NoiseParam for a seed.
func MaxNoise(s Seed) float64 { return skg.MaxNoise(s) }

// ParseFormat converts "tsv", "adj6" or "csr6" to a Format.
func ParseFormat(name string) (Format, error) {
	f, err := gformat.ParseFormat(name)
	if err != nil {
		return 0, fmt.Errorf("trilliong: %w", err)
	}
	return f, nil
}
