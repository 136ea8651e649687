// Package community composes TrillionG's scope generators into
// community-structured graphs: a partition of the vertex space into
// communities plus a mixing matrix, realized as dense intra-community
// blocks (SKG/NSKG via the recursive vector, or ERV for
// non-power-of-two community sizes) stitched together by sparse
// rectangular inter-community ERV blocks — the blocked layout of Yoo &
// Henderson's parallel scale-free generator, built from the paper's
// Figure-7b rectangles.
//
// Every block is generated deterministically from (master seed, block
// position): block b's scopes draw from rng.NewScoped(blockSeed(b), u),
// exactly the per-scope independence trick the flat generator uses. The
// graph is therefore a pure function of its Config — bit-identical
// across worker counts, machines, claim orders, and execution modes —
// and a block is the natural output unit: one part file, one store
// artifact, one dist lease, one swarm claim. Every thread that draws
// rows of a block builds its own scope generator, because both engines'
// Scope reuse per-generator state (avs: recursive vector; erv: nothing
// but the dedup set the thread lends it) and are not safe for
// concurrent use.
//
// Layout implements core.PartSource, which is what plugs the
// composition into the batch, distributed and masterless runtimes at
// once. It is the one block layout: a gMark schema (internal/gmark)
// compiles to the same blocks through Compose. docs/COMMUNITY.md is the
// user-facing contract.
package community

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/avs"
	"repro/internal/core"
	"repro/internal/erv"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Salts separating the package's derived RNG streams from each other
// and from the flat generator's.
const (
	// blockSeedSalt derives each block's seed from the master seed.
	blockSeedSalt = 0xB10C5
	// sizeSalt seeds the power-law community-size sampler.
	sizeSalt = 0x512E5
	// noiseSalt derives a block's NSKG noise stream from its block seed
	// (the same role core's 0xBE5 plays for the whole-graph noise).
	noiseSalt = 0xBE5
)

// maxCommunitySize caps one community at the generators' 2^47 range
// limit.
const maxCommunitySize = int64(1) << 47

// Config specifies a community-structured graph. It doubles as the
// JSON spec format of the -community CLI modes and the server job
// field (snake_case keys); ParseSpec decodes it strictly.
type Config struct {
	// Sizes lists explicit community sizes. When set, the sampler
	// fields below are ignored.
	Sizes []int64 `json:"sizes,omitempty"`

	// Communities, MinSize, MaxSize and SizeExponent parameterize the
	// seeded power-law size sampler used when Sizes is empty:
	// Communities sizes are drawn from a bounded power law with density
	// ∝ s^-SizeExponent on [MinSize, MaxSize], deterministically from
	// MasterSeed. Defaults: MinSize 64, MaxSize 8192, SizeExponent 2.
	Communities  int     `json:"communities,omitempty"`
	MinSize      int64   `json:"min_size,omitempty"`
	MaxSize      int64   `json:"max_size,omitempty"`
	SizeExponent float64 `json:"size_exponent,omitempty"`

	// Mixing is the k×k mixing matrix: Mixing[i][j] is the relative
	// weight of edges from community i to community j (unnormalized,
	// ≥ 0). The diagonal weights intra-community blocks.
	Mixing [][]float64 `json:"mixing"`

	// Edges is the total edge budget, split across blocks proportional
	// to Mixing. 0 means EdgeFactor × total vertices.
	Edges int64 `json:"edges,omitempty"`
	// EdgeFactor is the per-vertex budget when Edges is 0 (default 16).
	EdgeFactor int64 `json:"edge_factor,omitempty"`

	// Seed is the SKG seed matrix shaping degree distributions inside
	// every block (default Graph500). Intra blocks use it directly;
	// inter blocks use its Lemma-6 Zipf slopes for the ERV rectangle's
	// out- and in-distributions.
	Seed *skg.Seed `json:"seed,omitempty"`
	// Noise is the NSKG noise parameter applied to power-of-two intra
	// blocks (0 disables, as in the flat generator).
	Noise float64 `json:"noise,omitempty"`

	// MasterSeed is the graph's random identity (0 means 1).
	MasterSeed uint64 `json:"master_seed,omitempty"`
	// AllowDuplicates keeps repeated (src, dst) pairs within a scope.
	AllowDuplicates bool `json:"allow_duplicates,omitempty"`
}

// withDefaults fills unset fields with their documented defaults.
func (c Config) withDefaults() Config {
	if c.MasterSeed == 0 {
		c.MasterSeed = 1
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.Seed == nil {
		s := skg.Graph500Seed
		c.Seed = &s
	}
	if len(c.Sizes) == 0 {
		if c.MinSize == 0 {
			c.MinSize = 64
		}
		if c.MaxSize == 0 {
			c.MaxSize = 8192
		}
		if c.SizeExponent == 0 {
			c.SizeExponent = 2
		}
	}
	return c
}

// ParseSpec decodes a JSON community spec strictly (unknown fields are
// an error, so a typoed key fails loudly instead of silently changing
// the graph, and so is anything but white space after the spec).
func ParseSpec(b []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("community: spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return c, fmt.Errorf("community: spec: data after the spec object")
	}
	return c, nil
}

// Bipartite returns the spec of a plain rows×cols bipartite graph —
// the two-community degenerate case: all edges flow through the single
// rectangular inter block, the two diagonal blocks are empty.
func Bipartite(rows, cols, edges int64, masterSeed uint64) Config {
	return Config{
		Sizes:      []int64{rows, cols},
		Mixing:     [][]float64{{0, 1}, {0, 0}},
		Edges:      edges,
		MasterSeed: masterSeed,
	}
}

// Block is one rectangle of the blocked adjacency matrix: edges from
// community SrcComm's vertex range into community DstComm's.
type Block struct {
	// ID is the block's part index (dense, row-major over positive-
	// budget mixing entries).
	ID int
	// SrcComm and DstComm are the community indices.
	SrcComm, DstComm int
	// SrcLo/SrcHi and DstLo/DstHi are the global vertex ranges
	// (half-open) of the source rows and destination columns.
	SrcLo, SrcHi, DstLo, DstHi int64
	// Edges is the block's share of the total edge budget.
	Edges int64
	// Intra marks a diagonal (intra-community) block.
	Intra bool
	// Seed is the block's derived random seed; scope u of the block
	// draws from rng.NewScoped(Seed, u).
	Seed uint64
	// Name labels the block: "(i,j)", or a gMark edge type's predicate.
	Name string
	// AVS marks a block the AVS engine draws over the layout's seed
	// matrix; the others run ERV with OutDist and InDist.
	AVS             bool
	OutDist, InDist erv.Dist
}

// Layout is a resolved block layout: concrete sizes, offsets, per-block
// edge budgets, seeds and generators, from New or Compose. It implements
// core.PartSource with one part per block.
type Layout struct {
	cfg     Config // resolved: Sizes filled, Seed/Edges/MasterSeed set
	spec    any    // what EnsureManifest records (New's: cfg)
	offsets []int64
	blocks  []Block
	edges   int64
	scopes  int64
	fp      string
}

// New resolves cfg into a Layout: sizes are sampled if not explicit,
// the mixing matrix is normalized into per-block budgets (largest-
// remainder rounding, so budgets always sum to the total), and every
// block's generator configuration is validated up front. Unusable
// block rectangles surface as erv's typed *RangeError.
func New(cfg Config) (*Layout, error) {
	c := cfg.withDefaults()
	if err := c.Seed.Validate(); err != nil {
		return nil, fmt.Errorf("community: %w", err)
	}

	if len(c.Sizes) == 0 {
		if c.Communities < 1 {
			return nil, fmt.Errorf("community: need explicit sizes or communities > 0")
		}
		if c.MinSize < 1 || c.MaxSize < c.MinSize || c.MaxSize > maxCommunitySize {
			return nil, fmt.Errorf("community: size bounds [%d, %d] invalid", c.MinSize, c.MaxSize)
		}
		// Checked before sampling so the spec's own mixing matrix, not a
		// bare count, bounds what a spec can make this allocate.
		if len(c.Mixing) != c.Communities {
			return nil, fmt.Errorf("community: mixing matrix is %d×?, need %d×%d", len(c.Mixing), c.Communities, c.Communities)
		}
		c.Sizes = sampleSizes(c.Communities, c.MinSize, c.MaxSize, c.SizeExponent, c.MasterSeed)
	}
	k := len(c.Sizes)
	offsets, err := offsetsOf(c.Sizes)
	if err != nil {
		return nil, err
	}

	if len(c.Mixing) != k {
		return nil, fmt.Errorf("community: mixing matrix is %d×?, need %d×%d", len(c.Mixing), k, k)
	}
	weights := make([]float64, k*k)
	var mass float64
	for i, row := range c.Mixing {
		if len(row) != k {
			return nil, fmt.Errorf("community: mixing row %d has %d entries, need %d", i, len(row), k)
		}
		for j, w := range row {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("community: mixing[%d][%d] = %v invalid", i, j, w)
			}
			weights[i*k+j] = w
			mass += w
		}
	}
	if mass <= 0 {
		return nil, fmt.Errorf("community: mixing matrix is all zero")
	}
	if math.IsInf(mass, 0) {
		// Every share would round to zero and splitBudget would hand the
		// budget out one edge at a time.
		return nil, fmt.Errorf("community: mixing weights overflow when summed")
	}

	if c.Edges == 0 {
		if c.EdgeFactor > math.MaxInt64/offsets[k] {
			return nil, fmt.Errorf("community: edge factor %d over %d vertices overflows the edge budget", c.EdgeFactor, offsets[k])
		}
		c.Edges = c.EdgeFactor * offsets[k]
	}
	if c.Edges < 1 {
		return nil, fmt.Errorf("community: edge budget %d < 1", c.Edges)
	}
	budgets := splitBudget(weights, c.Edges)

	var blocks []Block
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			budget := budgets[i*k+j]
			if budget <= 0 {
				continue
			}
			rows, cols := c.Sizes[i], c.Sizes[j]
			b := Block{
				ID:      len(blocks),
				SrcComm: i, DstComm: j,
				SrcLo: offsets[i], SrcHi: offsets[i+1],
				DstLo: offsets[j], DstHi: offsets[j+1],
				Edges: budget,
				Intra: i == j,
				Seed:  rng.Mix64(rng.Mix64(c.MasterSeed, blockSeedSalt), uint64(i*k+j)),
				Name:  fmt.Sprintf("(%d,%d)", i, j),
				// Power-of-two squares run AVS (SKG, or NSKG with Noise); the
				// rest run ERV with the seed's Lemma-6 slopes.
				AVS: i == j && rows >= 2 && rows&(rows-1) == 0,
			}
			if !b.AVS {
				b.OutDist, b.InDist = distForSlope(c.Seed.OutZipfSlope()), distForSlope(c.Seed.InZipfSlope())
			}
			if !c.AllowDuplicates && float64(budget) > float64(rows)*float64(cols) {
				return nil, fmt.Errorf("community: block (%d,%d) budget %d exceeds its %d×%d capacity (raise sizes, lower the weight, or allow duplicates)",
					i, j, budget, rows, cols)
			}
			blocks = append(blocks, b)
		}
	}
	return Compose(c, blocks, fingerprint(c, blocks), c)
}

// Compose lays out blocks over communities of c.Sizes — New's, or a
// gMark schema's edge types: each block keeps its rectangle, budget,
// seed and distributions and gets its position as ID, while c supplies
// the master seed and what AVS blocks and the duplicate filter read.
// Every block's generator is probe-built, so a bad configuration
// (including empty or inverted rectangles, as *erv.RangeError) fails
// here, not mid-generation. fp is the layout's fingerprint and spec what
// its run manifests record.
func Compose(c Config, blocks []Block, fp string, spec any) (*Layout, error) {
	offsets, err := offsetsOf(c.Sizes)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("community: no block received a positive edge budget")
	}
	l := &Layout{cfg: c, spec: spec, offsets: offsets, blocks: blocks, fp: fp}
	for i := range blocks {
		b := &blocks[i]
		b.ID = i
		if _, _, err := l.newScoper(*b, new(avs.DedupSet)); err != nil {
			return nil, fmt.Errorf("community: block %s: %w", b.Name, err)
		}
		l.edges += b.Edges
		l.scopes += b.SrcHi - b.SrcLo
	}
	return l, nil
}

// offsetsOf returns each community's first vertex, then the total,
// checking every size against the generators' range and the total
// against the id space.
func offsetsOf(sizes []int64) ([]int64, error) {
	offsets := make([]int64, len(sizes)+1)
	for i, s := range sizes {
		if s < 1 {
			// A non-positive community is an unusable block rectangle;
			// surface erv's typed error so spec layers recognize it.
			return nil, fmt.Errorf("community %d: %w", i, &erv.RangeError{Rows: s, Cols: s})
		}
		if s > maxCommunitySize {
			return nil, fmt.Errorf("community %d: size %d exceeds the generator's 2^47 range limit", i, s)
		}
		if offsets[i+1] = offsets[i] + s; offsets[i+1] > gformat.MaxVertexID {
			return nil, fmt.Errorf("community: %d total vertices exceed the 48-bit id space", offsets[i+1])
		}
	}
	return offsets, nil
}

// sampleSizes draws k community sizes from the bounded power law with
// density ∝ s^-gamma on [lo, hi] by inverse-CDF, deterministically from
// the master seed.
func sampleSizes(k int, lo, hi int64, gamma float64, masterSeed uint64) []int64 {
	src := rng.New(rng.Mix64(masterSeed, sizeSalt))
	sizes := make([]int64, k)
	for i := range sizes {
		u := src.Float64()
		var s float64
		if math.Abs(gamma-1) < 1e-9 {
			s = float64(lo) * math.Exp(u*math.Log(float64(hi)/float64(lo)))
		} else {
			a := math.Pow(float64(lo), 1-gamma)
			b := math.Pow(float64(hi), 1-gamma)
			s = math.Pow(a+u*(b-a), 1/(1-gamma))
		}
		sizes[i] = min(max(int64(math.Round(s)), lo), hi)
	}
	return sizes
}

// splitBudget apportions total across the weights by largest-remainder
// rounding: floors first, then the remainder to the largest fractional
// parts (ties to the lower index), so the budgets sum to total exactly
// and the split is deterministic.
func splitBudget(weights []float64, total int64) []int64 {
	var mass float64
	for _, w := range weights {
		mass += w
	}
	out := make([]int64, len(weights))
	type frac struct {
		i int
		f float64
	}
	var fr []frac
	var used int64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(total) * w / mass
		fl := math.Floor(exact)
		out[i] = int64(fl)
		used += int64(fl)
		fr = append(fr, frac{i, exact - fl})
	}
	sort.SliceStable(fr, func(a, b int) bool {
		if fr[a].f != fr[b].f {
			return fr[a].f > fr[b].f
		}
		return fr[a].i < fr[b].i
	})
	for r := 0; used < total && len(fr) > 0; r++ {
		out[fr[r%len(fr)].i]++
		used++
	}
	return out
}

// fingerprint condenses everything that determines generated bytes:
// the resolved sizes, every block's rectangle, budget and seed, and
// the per-block generator parameters. Identical fingerprints mean
// bit-identical output, which is the property the store keys need.
func fingerprint(c Config, blocks []Block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "community/v1 master=%d dup=%t seed=%v noise=%v sizes=%v",
		c.MasterSeed, c.AllowDuplicates, *c.Seed, c.Noise, c.Sizes)
	for _, blk := range blocks {
		fmt.Fprintf(&b, " b%d=(%d,%d)[%d,%d)x[%d,%d)e%d:%016x",
			blk.ID, blk.SrcComm, blk.DstComm, blk.SrcLo, blk.SrcHi, blk.DstLo, blk.DstHi, blk.Edges, blk.Seed)
	}
	return b.String()
}

// Config returns the resolved configuration (sizes concrete, defaults
// applied). Marshaled, it round-trips through ParseSpec and New to an
// identical layout. A layout built by Compose returns the Config it was given.
func (l *Layout) Config() Config { return l.cfg }

// Sizes returns the resolved community sizes.
func (l *Layout) Sizes() []int64 { return l.cfg.Sizes }

// Blocks returns the block plan in part order.
func (l *Layout) Blocks() []Block { return l.blocks }

// NumBlocks returns the number of blocks — the layout's part count.
func (l *Layout) NumBlocks() int { return len(l.blocks) }

// TotalEdges returns the summed block budgets.
func (l *Layout) TotalEdges() int64 { return l.edges }

// ScopeTotal returns the number of scopes generation emits: the summed
// source rows over all blocks (one vertex can head a scope in several
// blocks).
func (l *Layout) ScopeTotal() int64 { return l.scopes }

// CommunityOf returns the community index owning global vertex v, or
// -1 when v is outside the vertex space.
func (l *Layout) CommunityOf(v int64) int {
	if v < 0 || v >= l.offsets[len(l.offsets)-1] {
		return -1
	}
	// offsets is sorted; find the last offset ≤ v.
	i := sort.Search(len(l.offsets), func(i int) bool { return l.offsets[i] > v })
	return i - 1
}

// Fingerprint implements core.PartSource.
func (l *Layout) Fingerprint() string { return l.fp }

// NumVertices implements core.PartSource.
func (l *Layout) NumVertices() int64 { return l.offsets[len(l.offsets)-1] }

// Plan implements core.PartSource. The layout's part count is
// intrinsic — one part per block — so parts must be 0 (no opinion) or
// exactly NumBlocks; anything else is a configuration clash, not a
// parallelism knob.
func (l *Layout) Plan(parts int) ([]partition.Range, []int, error) {
	if parts != 0 && parts != len(l.blocks) {
		return nil, nil, fmt.Errorf("community: layout has %d blocks (one part each), cannot plan %d parts", len(l.blocks), parts)
	}
	ranges := make([]partition.Range, len(l.blocks))
	ids := make([]int, len(l.blocks))
	for i, b := range l.blocks {
		ranges[i] = partition.Range{Lo: b.SrcLo, Hi: b.SrcHi, Edges: b.Edges}
		ids[i] = i
	}
	return ranges, ids, nil
}

// PartKey implements core.PartSource: the key fingerprints the whole
// resolved layout plus the block id, so two configs differing anywhere
// that matters — sizes, mixing-derived budgets, seeds, noise — address
// different artifacts, while identical configs cache-hit across batch,
// dist and swarm runs.
func (l *Layout) PartKey(format gformat.Format, id int, r partition.Range) store.Key {
	lo, hi := r.Lo, r.Hi
	if id >= 0 && id < len(l.blocks) {
		lo, hi = l.blocks[id].SrcLo, l.blocks[id].SrcHi
	}
	return store.DeriveKey(store.KeyInput{
		ConfigFingerprint: fmt.Sprintf("%s|block=%d", l.fp, id),
		MasterSeed:        l.cfg.MasterSeed,
		Lo:                lo,
		Hi:                hi,
		Format:            format.String(),
		Codec:             core.CacheCodecVersion,
	})
}

// ArtifactKey addresses the whole concatenated output (every block in
// part order) in the given format — the server's stream/download
// artifact, the byte-equal of the batch part files joined.
func (l *Layout) ArtifactKey(format gformat.Format) store.Key {
	return store.DeriveKey(store.KeyInput{
		ConfigFingerprint: l.fp + "|stream",
		MasterSeed:        l.cfg.MasterSeed,
		Lo:                0,
		Hi:                l.NumVertices(),
		Format:            format.String(),
		Codec:             core.CacheCodecVersion,
	})
}

// EnsureManifest implements core.PartSource, recording the resolved
// spec so tools (the statistical validator foremost) can recover what
// the directory claims to be.
func (l *Layout) EnsureManifest(dir string, format gformat.Format, parts int) error {
	spec, err := json.Marshal(l.spec)
	if err != nil {
		return err
	}
	return core.EnsureSourceManifest(dir, l.fp, spec, format, parts)
}

// distForSlope maps a Lemma-6 Zipf slope onto an ERV distribution:
// properly negative slopes are Zipfian; a flat (uniform-seed) slope
// degenerates to Gaussian, matching erv's own seed mapping.
func distForSlope(slope float64) erv.Dist {
	if slope < -1e-12 {
		return erv.Dist{Kind: erv.Zipfian, Slope: slope}
	}
	return erv.Dist{Kind: erv.Gaussian}
}

// newScoper builds block b's generator and its expected-edges closed
// form: the AVS engine over the layout's seed matrix (with the NSKG
// noise stream derived from the block seed) when b.AVS, ERV with the
// block's own distributions otherwise. Generators are not
// concurrency-safe: one scoper per thread, filtering duplicates through
// that thread's set.
func (l *Layout) newScoper(b Block, set *avs.DedupSet) (core.Scoper, func(lo, hi int64) float64, error) {
	rows, cols := b.SrcHi-b.SrcLo, b.DstHi-b.DstLo
	if b.AVS {
		seed := *l.cfg.Seed
		levels := bits.Len64(uint64(rows)) - 1
		acfg := avs.Config{
			Seed:            seed,
			Levels:          levels,
			NumEdges:        b.Edges,
			AllowDuplicates: l.cfg.AllowDuplicates,
			CommunityV1:     true,
		}
		if l.cfg.Noise > 0 {
			n, err := skg.NewNoise(seed, levels, l.cfg.Noise, rng.New(rng.Mix64(b.Seed, noiseSalt)))
			if err != nil {
				return nil, nil, err
			}
			acfg.Noise = n
		}
		g, err := avs.New(acfg, nil)
		if err != nil {
			return nil, nil, err
		}
		g.ShareSet(set)
		return func(u int64, src *rng.Source, buf []int64) ([]int64, int64) {
			res := g.Scope(u, src, buf)
			return res.Dsts, res.Attempts
		}, core.RowEdges(seed, acfg.Noise, levels, b.Edges), nil
	}
	ecfg := erv.Config{
		NumSrc:          rows,
		NumDst:          cols,
		NumEdges:        b.Edges,
		OutDist:         b.OutDist,
		InDist:          b.InDist,
		AllowDuplicates: l.cfg.AllowDuplicates,
	}
	g, err := erv.New(ecfg)
	if err != nil {
		return nil, nil, err
	}
	g.ShareSet(set)
	return g.ScopeAttempts, g.ExpectedEdges, nil
}

// OpenPart implements core.PartSource: block id. Scope u of the block
// draws from the stream of (b.Seed, u) — fully independent of every
// other scope and block, which is the whole determinism story — and
// lands as global scope (SrcLo+u, dsts+DstLo). The block's own rectangle
// fixes the rows, whatever r says, as in PartKey.
func (l *Layout) OpenPart(id int, _ partition.Range) (core.Part, error) {
	if id < 0 || id >= len(l.blocks) {
		return core.Part{}, fmt.Errorf("community: part %d outside the %d-block layout", id, len(l.blocks))
	}
	b := l.blocks[id]
	_, rowEdges, err := l.newScoper(b, new(avs.DedupSet))
	if err != nil {
		return core.Part{}, err
	}
	return core.Part{
		Lo: b.SrcLo, Hi: b.SrcHi,
		Seed:   b.Seed,
		SrcOff: b.SrcLo, DstOff: b.DstLo,
		NewScoper: func(set *avs.DedupSet, _ *memacct.Acct) (core.Scoper, error) {
			scope, _, err := l.newScoper(b, set)
			return scope, err
		},
		ExpectedEdges: rowEdges,
		Settled: func(st core.Stats, err error, tel *telemetry.Registry) error {
			if err != nil {
				return fmt.Errorf("community: block %s: %w", b.Name, err)
			}
			if tel != nil {
				tel.Counter(MetricBlocksGenerated).Inc()
				if b.Intra {
					tel.Counter(MetricIntraEdges).Add(st.Edges)
				} else {
					tel.Counter(MetricInterEdges).Add(st.Edges)
				}
			}
			return nil
		},
	}, nil
}

// checkFormat rejects encodings that cannot express the blocked
// layout: CSR6 needs exactly one scope per vertex, but a vertex heads
// one scope per block it sources.
func checkFormat(format gformat.Format) error {
	if !format.Streams() {
		return fmt.Errorf("community: format %v unsupported (blocked output repeats source scopes; use tsv or adj6)", format)
	}
	return nil
}

// RunOptions tunes GenerateToDir.
type RunOptions struct {
	// Store, when non-nil, is the artifact store: cached blocks are
	// materialized instead of generated, generated blocks are ingested.
	Store *store.Store
	// Telemetry receives community.* and core sink metrics (nil
	// disables).
	Telemetry *telemetry.Registry
}

// GenerateToDir generates the layout into dir, one part file per block
// (part-<blockID>.<ext>), with the full resume/store treatment of the
// flat generator — it is core.ResumeParts over the layout: atomic part
// files, a manifest handshake, existing complete parts skipped, store
// hits materialized, generated parts ingested. Concatenating the part
// files in part order yields the byte-exact stream output —
// core.StreamParts over Plan(0), which is how the HTTP server streams a
// community job and still shares artifacts with the part-file world.
func (l *Layout) GenerateToDir(dir string, format gformat.Format, opt RunOptions) (core.Stats, error) {
	if err := checkFormat(format); err != nil {
		return core.Stats{}, err
	}
	if tel := opt.Telemetry; tel != nil {
		tel.Gauge(MetricCommunities).Set(float64(len(l.cfg.Sizes)))
		tel.Gauge(MetricBlocksPlanned).Set(float64(len(l.blocks)))
	}
	return core.ResumeParts(l, 0, dir, format, opt.Store, opt.Telemetry)
}
