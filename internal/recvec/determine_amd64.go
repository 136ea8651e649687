//go:build amd64 && !purego

package recvec

// hasAVX2 selects the assembly kernels for determineWide, once per
// process.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves ymm state.
func cpuHasAVX2() bool

// determine8AVX2 is determineBatch twice, in two ymm divide chains, to
// the bit (determine_amd64.s). len(sigma) is the level count; f has at
// least as many entries.
//
//go:noescape
func determine8AVX2(f, sigma []float64, xs *[WideLanes / 2]float64, out *[WideLanes / 2]int64)

// determine16AVX2 is determineBatch four times, in four ymm divide
// chains, to the bit (determine_amd64.s), with f and sigma as for
// determine8AVX2.
//
//go:noescape
func determine16AVX2(f, sigma []float64, xs *[WideLanes]float64, out *[WideLanes]int64)
