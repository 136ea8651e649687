package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// layerPass is the part of a traced run that times single layers from
// outside, by looping their public calls on fixed seeded inputs. Each
// micro loop runs for micro; each whole-call comparison runs reps times.
type layerPass struct {
	micro time.Duration
	reps  int
	// untracedRate and untracedWall are the medians of the run's own
	// untraced repetitions, the base of every "share of" and "overhead
	// over" number.
	untracedRate float64
	untracedWall float64
	out          map[string]float64
}

func (lp *layerPass) set(name string, v float64) { lp.out[name] = v }

// sink keeps the compiler from discarding a measured call's result.
var sink int64

// loop calls body, which performs a batch of operations and returns how
// many, until micro has elapsed. It returns nanoseconds and heap
// allocations per operation.
func (lp *layerPass) loop(body func() int64) (nsPerOp, allocsPerOp float64) {
	body() // first call pays any lazy growth
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var ops int64
	start := time.Now()
	for time.Since(start) < lp.micro {
		ops += body()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(ms.Mallocs-mallocs) / float64(ops)
}

// loopReps runs a whole-call measurement reps times.
func (lp *layerPass) loopReps(fn func() error) error {
	for i := 0; i < lp.reps; i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// sampleRow picks the i-th sample row of a 2^levels vertex space: a fixed
// odd-multiplier walk, so samples spread over hubs and leaves alike.
func sampleRow(i int64, levels int) int64 {
	return int64(uint64(i) * 0x9E3779B97F4A7C15 >> uint(64-levels))
}

// common times the layers every generating workload crosses — rng,
// recvec and the gformat encoders and readers — at cfg's scale.
func (lp *layerPass) common(cfg core.Config) error {
	const batch = 1 << 12
	levels := cfg.Scale

	src := rng.New(cfg.MasterSeed)
	ns, _ := lp.loop(func() int64 {
		var acc float64
		for i := 0; i < batch; i++ {
			acc += src.Float64()
		}
		sink += int64(acc)
		return batch
	})
	lp.set("rng.float64_ns", ns)

	var scope uint64
	ns, _ = lp.loop(func() int64 {
		for i := 0; i < batch; i++ {
			scope++
			sink += int64(rng.NewScoped(cfg.MasterSeed, scope).Uint64() & 1)
		}
		return batch
	})
	lp.set("rng.new_scoped_ns", ns)

	var i int64
	ns, allocs := lp.loop(func() int64 {
		for k := 0; k < 256; k++ {
			i++
			sink += int64(recvec.New(cfg.Seed, sampleRow(i, levels), levels).Levels())
		}
		return 256
	})
	lp.set("recvec.new_ns", ns)
	lp.set("recvec.new_allocs", allocs)

	noise, err := skg.NewNoise(cfg.Seed, levels, 0.1, rng.New(rng.Mix64(cfg.MasterSeed, 0xBE5)))
	if err != nil {
		return err
	}
	ns, _ = lp.loop(func() int64 {
		for k := 0; k < 256; k++ {
			i++
			sink += int64(recvec.NewNoisy(noise, sampleRow(i, levels), levels).Levels())
		}
		return 256
	})
	lp.set("recvec.new_noisy_ns", ns)

	// Destination draws over one mid-weight row, on uniforms drawn
	// beforehand so only the descent is timed.
	u := sampleRow(7, levels)
	vec := recvec.New(cfg.Seed, u, levels)
	xs := make([]float64, batch)
	for k := range xs {
		xs[k] = src.UniformTo(vec.RowProb())
	}
	prod := recvec.Production()
	ns, _ = lp.loop(func() int64 {
		for _, x := range xs {
			sink += vec.DetermineOpt(x, src, prod)
		}
		return batch
	})
	lp.set("recvec.determine_ns", ns)

	big := recvec.NewBig(cfg.Seed, u, levels, 0)
	ns, _ = lp.loop(func() int64 {
		for _, x := range xs[:64] {
			sink += big.Determine(x)
		}
		return 64
	})
	lp.set("recvec.big_determine_ns", ns)

	return lp.gformat(cfg)
}

// scopeSample is a set of generated scopes with increasing sources.
type scopeSample struct {
	srcs  []int64
	dsts  [][]int64
	edges int64
}

// sampleScopes generates up to n scopes of cfg at an even stride over
// the vertex space, sources increasing (CSR6 needs that).
func sampleScopes(cfg core.Config, n int64) (scopeSample, error) {
	g, err := core.NewScopeGenerator(cfg, nil)
	if err != nil {
		return scopeSample{}, err
	}
	nv := cfg.NumVertices()
	n = min(n, nv)
	var s scopeSample
	for k := int64(0); k < n; k++ {
		u := k * (nv / n)
		res := g.Scope(u, rng.NewScoped(cfg.MasterSeed, uint64(u)), nil)
		s.srcs = append(s.srcs, u)
		s.dsts = append(s.dsts, res.Dsts)
		s.edges += int64(len(res.Dsts))
	}
	if s.edges == 0 {
		return s, errors.New("scope sample has no edges")
	}
	return s, nil
}

func (s scopeSample) writeTo(w gformat.Writer) error {
	for k, src := range s.srcs {
		if err := w.WriteScope(src, s.dsts[k]); err != nil {
			return err
		}
	}
	return w.Close()
}

// memSeeker is the in-memory io.WriteSeeker the CSR6 writer is given.
type memSeeker struct {
	buf []byte
	pos int64
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if need := m.pos + int64(len(p)); need > int64(len(m.buf)) {
		m.buf = append(m.buf, make([]byte, need-int64(len(m.buf)))...)
	}
	copy(m.buf[m.pos:], p)
	m.pos += int64(len(p))
	return len(p), nil
}

func (m *memSeeker) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		m.pos = off
	case io.SeekCurrent:
		m.pos += off
	case io.SeekEnd:
		m.pos = int64(len(m.buf)) + off
	}
	return m.pos, nil
}

// gformat times each encoder over pre-generated scopes into a discarding
// sink, and each reader over the bytes the matching encoder just wrote.
func (lp *layerPass) gformat(cfg core.Config) error {
	s, err := sampleScopes(cfg, 4096)
	if err != nil {
		return err
	}
	var werr error
	write := func(mk func() (gformat.Writer, error)) (nsPerEdge, allocsPerScope float64) {
		ns, allocs := lp.loop(func() int64 {
			w, err := mk()
			if err == nil {
				err = s.writeTo(w)
			}
			if err != nil {
				werr = err
			}
			return s.edges
		})
		return ns, allocs * float64(s.edges) / float64(len(s.srcs))
	}
	ns, allocs := write(func() (gformat.Writer, error) { return gformat.NewTSVWriter(io.Discard), nil })
	lp.set("gformat.tsv_write_ns_per_edge", ns)
	lp.set("gformat.write_allocs_per_scope", allocs)
	ns, _ = write(func() (gformat.Writer, error) { return gformat.NewADJ6Writer(io.Discard), nil })
	lp.set("gformat.adj6_write_ns_per_edge", ns)
	seeker := &memSeeker{}
	ns, _ = write(func() (gformat.Writer, error) {
		seeker.pos = 0
		return gformat.NewCSR6Writer(seeker, cfg.NumVertices())
	})
	lp.set("gformat.csr6_write_ns_per_edge", ns)
	if werr != nil {
		return werr
	}

	var tsv, adj bytes.Buffer
	if err := s.writeTo(gformat.NewTSVWriter(&tsv)); err != nil {
		return err
	}
	if err := s.writeTo(gformat.NewADJ6Writer(&adj)); err != nil {
		return err
	}
	var rerr error
	ns, _ = lp.loop(func() int64 {
		r := gformat.NewTSVReader(bytes.NewReader(tsv.Bytes()))
		var n int64
		for {
			e, err := r.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					rerr = err
				}
				break
			}
			sink += e.Dst
			n++
		}
		if n != s.edges {
			rerr = errors.New("TSV reader lost edges")
		}
		return s.edges
	})
	lp.set("gformat.tsv_read_ns_per_edge", ns)
	ns, _ = lp.loop(func() int64 {
		r := gformat.NewADJ6Reader(bytes.NewReader(adj.Bytes()))
		var n int64
		for {
			_, dsts, err := r.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					rerr = err
				}
				break
			}
			n += int64(len(dsts))
		}
		if n != s.edges {
			rerr = errors.New("ADJ6 reader lost edges")
		}
		return s.edges
	})
	lp.set("gformat.adj6_read_ns_per_edge", ns)
	return rerr
}

// avs times the scope generator alone on sampled rows: the size draw,
// and the whole scope per edge it yields. The whole-run ratios
// (attempts per edge, peak worker bytes) are exact counts the caller
// takes from core.Stats.
func (lp *layerPass) avs(cfg core.Config) error {
	var acct memacct.Acct
	g, err := core.NewScopeGenerator(cfg, &acct)
	if err != nil {
		return err
	}
	var i int64
	ns, _ := lp.loop(func() int64 {
		for k := 0; k < 1024; k++ {
			i++
			u := sampleRow(i, cfg.Scale)
			sink += g.ScopeSize(u, rng.NewScoped(cfg.MasterSeed, uint64(u)))
		}
		return 1024
	})
	lp.set("avs.scope_size_ns", ns)

	var buf []int64
	var scopes, edges int64
	i = 0
	ns, allocs := lp.loop(func() int64 {
		var n int64
		for k := 0; k < 256 || n == 0; k++ {
			i++
			u := sampleRow(i, cfg.Scale)
			res := g.Scope(u, rng.NewScoped(cfg.MasterSeed, uint64(u)), buf)
			buf = res.Dsts
			n += int64(len(res.Dsts))
			scopes++
		}
		edges += n
		return n
	})
	lp.set("avs.scope_ns_per_edge", ns)
	lp.set("avs.allocs_per_scope", allocs*float64(edges)/float64(scopes))
	return nil
}

// partition times core.Plan for the workload's part count and reports
// how uneven its ranges are (max over mean planned edges; exact).
func (lp *layerPass) partition(cfg core.Config, parts int) error {
	var ms []float64
	var skew float64
	err := lp.loopReps(func() error {
		start := time.Now()
		ranges, err := core.Plan(cfg, parts)
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		var sum, most int64
		for _, r := range ranges {
			sum += r.Edges
			most = max(most, r.Edges)
		}
		if sum > 0 {
			skew = float64(most) * float64(len(ranges)) / float64(sum)
		}
		return err
	})
	if err != nil {
		return err
	}
	lp.set("partition.plan_ms", median(ms))
	lp.set("partition.plan_share", median(ms)/1e3/lp.untracedWall)
	lp.set("partition.range_skew", skew)
	return nil
}
