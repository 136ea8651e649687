//go:build amd64 && !purego

package recvec

// hasAVX2 selects determineWideAVX2 for determineWide, once per process.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves ymm state.
func cpuHasAVX2() bool

// determineWideAVX2 is determineWideGo in two ymm divide chains, to the
// bit (determine_amd64.s). len(sigma) is the level count; f has at least
// as many entries.
//
//go:noescape
func determineWideAVX2(f, sigma []float64, xs *[WideLanes]float64, out *[WideLanes]int64)
