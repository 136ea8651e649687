package core

import (
	"fmt"

	"repro/internal/avs"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// PartSource abstracts a generation job whose output is a fixed,
// deterministic set of part files: the classic single-model run
// (Config itself, below) and the community-structured composition
// (internal/community.Layout) both implement it. Everything the
// runtimes need to execute a job part by part goes through this
// interface — the part executor (executor.go) plans, fetches, generates
// and ingests against it on behalf of batch resume, dist leases and
// swarm claims — so a new graph family plugs into every execution mode
// at once instead of being a flag on one of them.
//
// The contract mirrors the determinism contract of the whole system:
// part id -> bytes is a pure function of the source alone. Two sources
// with equal Fingerprints must produce bit-identical parts, and a part's
// bytes must not depend on which process generates it, in what order,
// or alongside which other parts.
type PartSource interface {
	// Fingerprint condenses everything that determines generated bytes
	// (parallelism normalized out). It keys manifests, swarm claim
	// schedules, and — combined with PartKey — the artifact store.
	Fingerprint() string

	// NumVertices is the size of the global vertex space; part files
	// encode vertex ids below it.
	NumVertices() int64

	// Plan fixes the part layout: parallel slices pairing each part's
	// vertex range (Lo/Hi of its *source* rows, Edges its expected edge
	// budget, for cost-aware scheduling) with its global part index.
	// parts is a hint; sources with an intrinsic layout (one part per
	// community block) may ignore it or reject a conflicting value.
	Plan(parts int) ([]partition.Range, []int, error)

	// PartKey derives the artifact-store key addressing part id's exact
	// bytes in the given format.
	PartKey(format gformat.Format, id int, r partition.Range) store.Key

	// OpenPart describes part id for the executor: its rows, its stream
	// seed and offsets, how a thread builds a Scoper for it and what it
	// is expected to cost. It draws nothing. A source whose layout fixes
	// the rows (a community block) ignores r's, as in PartKey.
	OpenPart(id int, r partition.Range) (Part, error)

	// EnsureManifest validates dir against an existing run manifest or
	// records one — the shared-directory handshake that keeps two
	// processes from interleaving parts of two different jobs.
	EnsureManifest(dir string, format gformat.Format, parts int) error
}

// Fingerprint implements PartSource via CacheFingerprint.
func (c Config) Fingerprint() string { return CacheFingerprint(c) }

// Plan implements PartSource with the expected-edge cuts of Plan; part
// ids are positional.
func (c Config) Plan(parts int) ([]partition.Range, []int, error) {
	ranges, err := Plan(c, parts)
	if err != nil {
		return nil, nil, err
	}
	return ranges, seqIDs(len(ranges)), nil
}

// seqIDs returns the positional part ids 0..n-1.
func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// PartKey implements PartSource. The id is ignored: a classic part is
// addressed by its vertex range alone.
func (c Config) PartKey(format gformat.Format, _ int, r partition.Range) store.Key {
	return PartKey(c, format, r)
}

// Part is one opened part of a PartSource: what the executor needs to
// draw it a chunk of rows at a time on whichever thread is free. The
// generator works in its own rectangle: global source row v is its row
// v−SrcOff, drawn from the stream of (Seed, v−SrcOff), and DstOff is
// added to every destination — offsets zero and the master seed for a
// classic run, the block's corner and seed for a community block.
type Part struct {
	// Lo and Hi bound the part's global source rows, half-open.
	Lo, Hi int64
	// Seed is the part's stream seed.
	Seed uint64
	// SrcOff and DstOff place the generator's rectangle in the global
	// vertex space.
	SrcOff, DstOff int64
	// NewScoper builds the part's scope generator for one thread.
	// Generators are not safe for concurrent use, so every thread that
	// draws rows of the part builds its own; set is that thread's
	// duplicate filter, lent so it stays warm from part to part, and
	// acct (a source may ignore it) is charged each scope's working set.
	NewScoper func(set *avs.DedupSet, acct *memacct.Acct) (Scoper, error)
	// ExpectedEdges is the closed-form expected edge count of generator
	// rows [lo, hi) (global rows less SrcOff) — what chunks are cut by.
	ExpectedEdges func(lo, hi int64) float64
	// Settled, if non-nil, is called once when the part has settled —
	// every row written and the writer closed, or failed (but for a
	// stream's failure, which ends it unsettled) — with its counts and
	// error, and returns the error to report: the place for a source's
	// own counters and its name on the error.
	Settled func(st Stats, err error, tel *telemetry.Registry) error
}

// OpenPart implements PartSource: rows r of the one AVS rectangle, the
// master seed, no offsets.
func (c Config) OpenPart(_ int, r partition.Range) (Part, error) {
	if err := c.Validate(); err != nil {
		return Part{}, err
	}
	return Part{
		Lo: r.Lo, Hi: r.Hi,
		Seed: c.MasterSeed,
		NewScoper: func(set *avs.DedupSet, acct *memacct.Acct) (Scoper, error) {
			g, err := NewScopeGenerator(c, acct)
			if err != nil {
				return nil, err
			}
			g.ShareSet(set)
			return g.ScopeAttempts, nil
		},
		ExpectedEdges: c.rowEdges(),
	}, nil
}

// Scoper draws one scope: it appends the destinations of local source
// row u, drawn from src (already seeded for u), to dst — growing it the
// way append does — and returns it with the scope's stochastic attempt
// count. dst's earlier values are neither read nor changed, so the
// executor draws each row straight into the chunk that carries it to
// the writer.
type Scoper func(dst []int64, u int64, src *rng.Source) ([]int64, int64)

// planner names the way Plan cuts parts. Part files carry only their
// index, so a directory half-written under other cuts must not be
// completed under these: the name enters the manifest's identity, and a
// change to the cuts must change it.
const planner = "rowedges-nearest"

// EnsureManifest implements PartSource. The manifest's identity
// condenses everything that determines the part file set: the full
// configuration (Workers normalized out — parts is recorded separately,
// and it, not Workers, is what fixes the plan), format, part count and
// planner. The configuration is also recorded in full, so tools can
// recover what the directory claims to be.
func (c Config) EnsureManifest(dir string, format gformat.Format, parts int) error {
	c.Workers = 0
	return ensureManifest(dir, resumeManifest{
		Fingerprint: fmt.Sprintf("%s format=%v parts=%d plan=%s", CacheFingerprint(c), format, parts, planner),
		Parts:       parts,
		Format:      format.String(),
		Config:      (*manifestConfig)(&c),
	})
}
