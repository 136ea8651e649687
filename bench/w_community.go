package main

import (
	"fmt"
	"math/bits"
	"os"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/erv"
	"repro/internal/gformat"
	"repro/internal/rng"
	"repro/internal/skg"
)

// communityK4 lays out four communities of non-power-of-two sizes and
// generates all 16 blocks into a directory. No block is a power-of-two
// square, so every one takes the ERV rectangle path and the AVS draw
// loop never runs: for an AVS change this is a no-change row, and it is
// the guard on the per-block copy of the scope loop.
type communityK4 struct {
	cc     community.Config
	format gformat.Format
	base   string
	want   core.Stats
	blocks []community.Block
}

func setupCommunity(e env) (instance, error) {
	div := pick[int64](e, 4, 200)
	c := &communityK4{format: gformat.ADJ6, cc: community.Config{
		Sizes:      []int64{300000 / div, 200000 / div, 150000 / div, 100000 / div},
		Mixing:     [][]float64{{8, 1, 1, 1}, {1, 8, 1, 1}, {1, 1, 8, 1}, {1, 1, 1, 8}},
		Edges:      24000000 / div,
		MasterSeed: e.master(7),
	}}
	var err error
	if c.base, err = e.mkdir("community-k4"); err != nil {
		return nil, err
	}
	r, err := c.rep(nil)
	if err != nil {
		c.close()
		return nil, err
	}
	// The budget splits over the blocks exactly; what the blocks then
	// draw is stochastic around it.
	if g, ok := golden("community-k4", e.smoke, e.seed); ok {
		err = g.check(c.want.Edges, c.want.BytesWritten)
	} else if off := float64(r.edges)/float64(c.cc.Edges) - 1; off < -0.05 || off > 0.05 {
		err = fmt.Errorf("generated %d edges for a budget of %d", r.edges, c.cc.Edges)
	}
	if err != nil {
		c.close()
		return nil, fmt.Errorf("community-k4: %w", err)
	}
	return c, nil
}

func (c *communityK4) size() string {
	return fmt.Sprintf("sizes %v, mixing diag 8 / off-diag 1, budget %d edges, %v: %d blocks, %d edges",
		c.cc.Sizes, c.cc.Edges, c.format, len(c.blocks), c.want.Edges)
}

func (c *communityK4) close() { os.RemoveAll(c.base) }

func (c *communityK4) rep(tr *tracer) (repResult, error) {
	dir, err := os.MkdirTemp(c.base, "rep")
	if err != nil {
		return repResult{}, err
	}
	defer os.RemoveAll(dir)

	root := tr.begin(0, "community-k4")
	start := time.Now()
	span := tr.begin(root, "community.layout")
	l, err := community.New(c.cc)
	if err != nil {
		return repResult{}, err
	}
	tr.finish(span, int64(l.NumBlocks()))
	span = tr.begin(root, "community.generate")
	st, err := l.GenerateToDir(dir, c.format, community.RunOptions{})
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	tr.finish(span, st.Edges)
	tr.finish(root, st.Edges)

	res := repResult{wall: wall, edges: st.Edges, bytes: st.BytesWritten, jobs: []time.Duration{wall}, ops: 1}
	if c.blocks == nil { // the warm-up: fix what later repetitions must repeat
		if l.TotalEdges() != c.cc.Edges || l.NumBlocks() != 16 {
			return res, fmt.Errorf("community-k4: layout plans %d edges in %d blocks, want %d in 16", l.TotalEdges(), l.NumBlocks(), c.cc.Edges)
		}
		c.blocks, c.want = l.Blocks(), st
	}
	var onDisk int64
	for id := range c.blocks {
		if fi, err := os.Stat(core.PartPath(dir, c.format, id)); err == nil {
			onDisk += fi.Size()
		}
	}
	res.failed = sameCounts("community-k4", st.Edges, onDisk, c.want.Edges, c.want.BytesWritten)
	return res, nil
}

func (c *communityK4) layers(lp *layerPass) error {
	// The flat layers at the scale that would hold this many vertices.
	var nv int64
	for _, s := range c.cc.Sizes {
		nv += s
	}
	flat := core.DefaultConfig(bits.Len64(uint64(nv - 1)))
	flat.MasterSeed = c.cc.MasterSeed
	if err := lp.common(flat); err != nil {
		return err
	}

	var ms []float64
	err := lp.loopReps(func() error {
		start := time.Now()
		_, err := community.New(c.cc)
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		return err
	})
	if err != nil {
		return err
	}
	lp.set("community.layout_ms", median(ms))
	var sum, most int64
	for _, b := range c.blocks {
		sum += b.Edges
		most = max(most, b.Edges)
	}
	lp.set("community.block_skew", float64(most)*float64(len(c.blocks))/float64(sum))
	lp.set("community.attempts_per_edge", float64(c.want.Attempts)/float64(c.want.Edges))

	// The ERV kernel alone, on the rectangle of the first inter block
	// with the distributions the layout gives it (the seed's Lemma-6
	// Zipf slopes).
	b := c.blocks[1]
	g, err := erv.New(erv.Config{
		NumSrc: b.SrcHi - b.SrcLo, NumDst: b.DstHi - b.DstLo, NumEdges: b.Edges,
		OutDist: erv.Dist{Kind: erv.Zipfian, Slope: skg.Graph500Seed.OutZipfSlope()},
		InDist:  erv.Dist{Kind: erv.Zipfian, Slope: skg.Graph500Seed.InZipfSlope()},
	})
	if err != nil {
		return err
	}
	var buf []int64
	var u int64
	ns, _ := lp.loop(func() int64 {
		var n int64
		for k := 0; k < 256 || n == 0; k++ {
			u = (u + 1) % (b.SrcHi - b.SrcLo)
			buf = g.Scope(u, rng.NewScoped(b.Seed, uint64(u)), buf)
			n += int64(len(buf))
		}
		return n
	})
	lp.set("erv.scope_ns_per_edge", ns)
	return nil
}
