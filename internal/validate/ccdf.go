package validate

import (
	"math"
	"sort"

	"repro/internal/stats"
)

const (
	// gridExact is the degree up to which the evaluation grid carries
	// every integer; beyond it the grid thins to gridPerOctave
	// geometrically spaced points, which bounds evaluation cost on
	// billion-degree tails while keeping every power of two (the
	// chi-square octave boundaries) an exact grid point.
	gridExact     = 128
	gridPerOctave = 8

	// oscBinsPerOctave and oscMinMass mirror stats.Oscillation exactly,
	// so the predicted and observed scores are the same metric.
	oscBinsPerOctave = 4
	oscMinMass       = 16

	// OscillationDetectThreshold splits the oscillation score into
	// "Figure-9 ripple present" vs "clean power law". Calibrated on
	// seeded Graph500 runs at scales 12–16: plain SKG scores 2.6–9.3,
	// NSKG with noise 0.1 scores 0.00–0.75.
	OscillationDetectThreshold = 1.0
)

// classEval is one vertex class ready for CCDF evaluation: count
// vertices whose degree is approximately Normal(mu, sigma) rounded to
// integers, with an exact zero-degree probability p0 (the normal tail
// is a poor estimate of P(deg=0) exactly where the checks care most,
// so it is carried separately).
type classEval struct {
	count, mu, sigma, p0 float64
}

// axisEval is the expected degree CCDF of one axis evaluated on the
// standard grid: ccdf[i] = expected number of vertices with degree ≥
// grid[i]; total = number of vertices on the axis.
type axisEval struct {
	grid  []int64
	ccdf  []float64
	total float64
}

// binomCCDF is P(deg ≥ d) for one vertex whose degree is drawn as
// rng.Binomial(trials, p) draws it at large trial counts: a normal
// rounded to the nearest integer and clamped — hence the half-integer
// continuity correction. The model deliberately matches the
// generator's sampler, not the idealized binomial (they differ by
// o(1/σ), but matching the sampler is what makes the checks sharp).
func binomCCDF(d, np, sigma float64) float64 {
	if sigma == 0 {
		if np >= d-0.5 {
			return 1
		}
		return 0
	}
	return 0.5 * math.Erfc((d-0.5-np)/(sigma*math.Sqrt2))
}

// binomialEvals maps probability classes to evaluation classes under
// the plain Theorem-1 draw: deg ~ Binomial(trials, p).
func binomialEvals(classes []probClass, trials float64) []classEval {
	ces := make([]classEval, len(classes))
	for i, c := range classes {
		p := math.Exp2(c.logP)
		np := trials * p
		sigma := math.Sqrt(np * (1 - p))
		ces[i] = classEval{
			count: c.count,
			mu:    np,
			sigma: sigma,
			p0:    1 - binomCCDF(1, np, sigma),
		}
	}
	return ces
}

// degreeGrid builds the evaluation grid 1..min(gridExact, maxDeg) step
// 1, then geometric points until maxDeg is covered.
func degreeGrid(maxDeg int64) []int64 {
	if maxDeg < 1 {
		maxDeg = 1
	}
	var g []int64
	for d := int64(1); d <= maxDeg && d <= gridExact; d++ {
		g = append(g, d)
	}
	for i := 1; g[len(g)-1] < maxDeg; i++ {
		d := int64(math.Round(gridExact * math.Pow(2, float64(i)/gridPerOctave)))
		if d > g[len(g)-1] {
			g = append(g, d)
		}
	}
	return g
}

// evalGrid sums each class's CCDF over the grid. Grid point 1 uses the
// exact p0; beyond it, only grid points within ±8σ of the class mean
// need an erfc — everything below is a full contribution (handled by a
// difference array) and everything above is zero, which keeps the
// evaluation O(classes·transition width) instead of O(classes·grid).
func evalGrid(ces []classEval, domain int64) *axisEval {
	var total, maxUseful float64
	for _, c := range ces {
		total += c.count
		if u := c.mu + 10*c.sigma + 10; u > maxUseful {
			maxUseful = u
		}
	}
	grid := degreeGrid(int64(math.Min(maxUseful, float64(domain))))
	ccdf := make([]float64, len(grid))
	full := make([]float64, len(grid)+1)
	for _, c := range ces {
		ccdf[0] += c.count * (1 - c.p0)
		lo, hi := c.mu-8*c.sigma, c.mu+8*c.sigma
		iLo := sort.Search(len(grid), func(j int) bool { return float64(grid[j]) >= lo })
		iHi := sort.Search(len(grid), func(j int) bool { return float64(grid[j]) > hi })
		if iLo < 1 {
			iLo = 1
		}
		full[1] += c.count
		full[iLo] -= c.count
		for j := iLo; j < iHi; j++ {
			ccdf[j] += c.count * binomCCDF(float64(grid[j]), c.mu, c.sigma)
		}
	}
	run := 0.0
	for i := 1; i < len(ccdf); i++ {
		run += full[i]
		ccdf[i] += run
	}
	return &axisEval{grid: grid, ccdf: ccdf, total: total}
}

// evalUniformBox is the exact CCDF of count vertices with degrees
// uniform on [lo, hi] (the ERV Uniform out-distribution).
func evalUniformBox(lo, hi int64, count float64, domain int64) *axisEval {
	maxDeg := hi
	if maxDeg > domain {
		maxDeg = domain
	}
	grid := degreeGrid(maxDeg)
	ccdf := make([]float64, len(grid))
	span := float64(hi - lo + 1)
	for i, d := range grid {
		switch {
		case d <= lo:
			ccdf[i] = count
		case d > hi:
			ccdf[i] = 0
		default:
			ccdf[i] = count * float64(hi-d+1) / span
		}
	}
	return &axisEval{grid: grid, ccdf: ccdf, total: count}
}

// at returns the expected count of vertices with degree ≥ d: exact at
// grid points, log-interpolated between them, total below the grid and
// 0 beyond it.
func (e *axisEval) at(d int64) float64 {
	if d <= 0 {
		return e.total
	}
	i := sort.Search(len(e.grid), func(j int) bool { return e.grid[j] >= d })
	if i == len(e.grid) {
		return 0
	}
	if e.grid[i] == d || i == 0 {
		return e.ccdf[i]
	}
	// Between grid points: interpolate linearly in log-degree.
	d0, d1 := float64(e.grid[i-1]), float64(e.grid[i])
	t := (math.Log2(float64(d)) - math.Log2(d0)) / (math.Log2(d1) - math.Log2(d0))
	return e.ccdf[i-1] + t*(e.ccdf[i]-e.ccdf[i-1])
}

// zeros is the expected number of degree-0 vertices on the axis.
func (e *axisEval) zeros() float64 { return e.total - e.ccdf[0] }

// hist rounds the expected distribution into a stats.Hist (zeros under
// key 0, each grid cell's mass at its lower-edge degree). Rounding
// carries its residue forward so the total vertex count is preserved
// instead of the tail being rounded away cell by cell.
func (e *axisEval) hist() stats.Hist {
	h := make(stats.Hist)
	carry := 0.0
	put := func(deg int64, mass float64) {
		c := mass + carry
		n := math.Floor(c + 0.5)
		carry = c - n
		if n > 0 {
			h[deg] += int64(n)
		}
	}
	put(0, e.zeros())
	for i, d := range e.grid {
		mass := e.ccdf[i]
		if i+1 < len(e.grid) {
			mass -= e.ccdf[i+1]
		}
		put(d, mass)
	}
	return h
}

// octaveCells returns parallel expected counts per octave bin
// [2^k, 2^{k+1}) for k in [0, kMax]. Octave boundaries are exact grid
// points by construction.
func (e *axisEval) octaveCells() []float64 {
	maxDeg := e.grid[len(e.grid)-1]
	kMax := int(math.Floor(math.Log2(float64(maxDeg))))
	cells := make([]float64, kMax+1)
	for k := 0; k <= kMax; k++ {
		cells[k] = e.at(int64(1)<<uint(k)) - e.at(int64(1)<<uint(k+1))
	}
	return cells
}

// oscillation evaluates the stats.Oscillation metric — upward mass of
// the log-log degree plot over quarter-octave bins, with the same
// sparse-bin noise floor — on the expected distribution. This is the
// theory-side Figure 9: plain SKG's expected CCDF already carries the
// ripple, so the predictor proves the artifact is the model's, not the
// sampler's, and that NSKG noise damps it.
func (e *axisEval) oscillation() float64 {
	type bin struct {
		mass    float64
		degrees float64
	}
	bins := make(map[int]*bin)
	minK, maxK := 1<<30, -(1 << 30)
	for i, d := range e.grid {
		mass := e.ccdf[i]
		span := int64(1)
		if i+1 < len(e.grid) {
			mass -= e.ccdf[i+1]
			span = e.grid[i+1] - d
		}
		if mass <= 0 {
			continue
		}
		k := int(math.Floor(oscBinsPerOctave * math.Log2(float64(d))))
		b := bins[k]
		if b == nil {
			b = &bin{}
			bins[k] = b
		}
		b.mass += mass
		b.degrees += float64(span)
		if k < minK {
			minK = k
		}
		if k > maxK {
			maxK = k
		}
	}
	var up float64
	prev := math.NaN()
	for k := minK; k <= maxK; k++ {
		b := bins[k]
		if b == nil || b.mass < oscMinMass {
			continue
		}
		cur := math.Log2(b.mass / b.degrees)
		if !math.IsNaN(prev) && cur > prev {
			up += cur - prev
		}
		prev = cur
	}
	return up
}

// zipfSlope fits the expected rank-frequency curve with the same
// procedure stats.ZipfSlope applies to observed degree sequences
// (log-subsampled ranks, factor 1.3, linear fit of log2 degree vs
// log2 rank), so the check compares like with like — the asymptotic
// Lemma 6 slope is reported separately but is not what a whole-curve
// fit converges to at finite scale.
func (e *axisEval) zipfSlope() float64 {
	active := e.ccdf[0]
	if active < 4 {
		return math.NaN()
	}
	var xs, ys []float64
	for rank := 1.0; rank <= active; {
		i := sort.Search(len(e.ccdf), func(j int) bool { return e.ccdf[j] < rank })
		if i == 0 {
			break
		}
		xs = append(xs, math.Log2(rank))
		ys = append(ys, math.Log2(float64(e.grid[i-1])))
		next := math.Ceil(rank * 1.3)
		if next == rank {
			next++
		}
		rank = next
	}
	if len(xs) < 3 {
		return math.NaN()
	}
	s, _, _ := stats.LinearFit(xs, ys)
	return s
}

// ExpectedZipfSlope is the rank-frequency slope of the expected
// out-degree curve under the observed-side fit procedure.
func (m *Model) ExpectedZipfSlope() float64 { return m.outE.zipfSlope() }

// finish computes both axis evaluations; constructors call it once so
// Model methods are cheap and the Model is safe for concurrent reads.
func (m *Model) finish() {
	trials := float64(m.Trials)
	if m.uniformOut != nil {
		m.outE = evalUniformBox(m.uniformOut[0], m.uniformOut[1], float64(m.ScopeVertices), m.DestVertices)
	} else {
		m.outE = evalGrid(binomialEvals(m.out, trials), m.DestVertices)
	}
	if m.dedup && m.uniformOut == nil {
		m.inDedup = newDedupModel(m.out, m.in, trials)
		m.inE = evalGrid(m.inDedup.evals(m.in), m.ScopeVertices)
	} else {
		m.inE = evalGrid(binomialEvals(m.in, trials), m.ScopeVertices)
	}
}

// ExpectedEdges is the expected total edge count: the Theorem-1 row
// masses sum to 1, so for SKG/NSKG this is |E| up to class coalescing
// error — deviations in the observed total indicate sampler or sink
// bugs, not model spread.
func (m *Model) ExpectedEdges() float64 {
	if m.uniformOut != nil {
		return float64(m.ScopeVertices) * float64(m.uniformOut[0]+m.uniformOut[1]) / 2
	}
	var mass float64
	for _, c := range m.out {
		mass += c.count * math.Exp2(c.logP)
	}
	return float64(m.Trials) * mass
}

// ExpectedZeroOut is the expected number of vertices with no scope
// edges (Seshadhri et al.'s isolated-vertex analysis, out side).
func (m *Model) ExpectedZeroOut() float64 { return m.outE.zeros() }

// ExpectedZeroIn is the in-axis analogue.
func (m *Model) ExpectedZeroIn() float64 { return m.inE.zeros() }

// ExpectedIsolated is the expected number of vertices with neither out
// nor in edges, using the joint per-vertex classes and treating the
// two degree draws as independent given the class. NaN when the axes
// have different domains (ERV).
func (m *Model) ExpectedIsolated() float64 {
	if m.joint == nil {
		return math.NaN()
	}
	trials := float64(m.Trials)
	var s float64
	for _, c := range m.joint {
		po := math.Exp2(c.logOut)
		no := trials * po
		outP0 := 1 - binomCCDF(1, no, math.Sqrt(no*(1-po)))
		var inP0 float64
		if m.inDedup != nil {
			_, _, inP0 = m.inDedup.moments(c.logIn)
		} else {
			pi := math.Exp2(c.logIn)
			ni := trials * pi
			inP0 = 1 - binomCCDF(1, ni, math.Sqrt(ni*(1-pi)))
		}
		s += c.count * outP0 * inP0
	}
	return s
}

// ExpectedOutHist is the expected out-degree histogram (zeros under
// key 0), rounded for use with stats.KS.
func (m *Model) ExpectedOutHist() stats.Hist { return m.outE.hist() }

// ExpectedInHist is the in-axis analogue.
func (m *Model) ExpectedInHist() stats.Hist { return m.inE.hist() }

// ExpectedOutCCDF returns the expected number of vertices with
// out-degree ≥ d.
func (m *Model) ExpectedOutCCDF(d int64) float64 { return m.outE.at(d) }

// PredictedOutOscillation is the stats.Oscillation score of the
// expected out-degree distribution.
func (m *Model) PredictedOutOscillation() float64 { return m.outE.oscillation() }

// OscillationPredicted reports whether the model itself carries the
// Figure-9 ripple (score at or above OscillationDetectThreshold).
func (m *Model) OscillationPredicted() bool {
	return m.PredictedOutOscillation() >= OscillationDetectThreshold
}
