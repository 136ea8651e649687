//go:build !amd64 || purego

package recvec

// hasAVX2 and hasEVEX are false where the assembly kernels are not
// built: determineWide runs determineWideGo.
const hasAVX2, hasEVEX = false, false

func determine8AVX2(f, sigma []float64, xs *[8]float64, out *[8]int64) {
	panic("recvec: no AVX2 kernel in this build")
}

func determine16AVX2(f, sigma []float64, xs *[16]float64, out *[16]int64) {
	panic("recvec: no AVX2 kernel in this build")
}

func determine32EVEX(f, sigma, recip []float64, xs *[WideLanes]float64, out *[WideLanes]int64) bool {
	panic("recvec: no EVEX kernel in this build")
}
