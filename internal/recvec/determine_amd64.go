//go:build amd64 && !purego

package recvec

// hasAVX2 selects the VDIVPD kernels for determineWide, and hasEVEX the
// certified pass for its batches wider than sixteen, once per process.
var hasAVX2, hasEVEX = cpuFeatures()

// cpuFeatures reports whether the CPU has AVX2 and the OS saves ymm
// state, and whether it also has FMA, AVX-512F and AVX-512VL and the OS
// saves the opmask and upper-sixteen register state (cpuid_amd64.s).
func cpuFeatures() (avx2, evex bool)

// determine8AVX2 is determineBatch twice, in two ymm divide chains, to
// the bit (determine_amd64.s). len(sigma) is the level count; f has at
// least as many entries.
//
//go:noescape
func determine8AVX2(f, sigma []float64, xs *[8]float64, out *[8]int64)

// determine16AVX2 is determineBatch four times, in four ymm divide
// chains, to the bit (determine_amd64.s), with f and sigma as for
// determine8AVX2.
//
//go:noescape
func determine16AVX2(f, sigma []float64, xs *[16]float64, out *[16]int64)

// determine32EVEX descends all WideLanes lanes in eight FMA chains and
// reports whether every lane passed the certificate and none ended NaN;
// only then is out Determine's, to the bit (determine_amd64.s). recip
// holds RN(1/σ[k]) for a vector fillRecip found inside the domain.
//
//go:noescape
func determine32EVEX(f, sigma, recip []float64, xs *[WideLanes]float64, out *[WideLanes]int64) (certified bool)
