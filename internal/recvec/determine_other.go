//go:build !amd64 || purego

package recvec

// hasAVX2 is false where the assembly kernels are not built:
// determineWide runs determineWideGo.
const hasAVX2 = false

func determine8AVX2(f, sigma []float64, xs *[WideLanes / 2]float64, out *[WideLanes / 2]int64) {
	panic("recvec: no AVX2 kernel in this build")
}

func determine16AVX2(f, sigma []float64, xs *[WideLanes]float64, out *[WideLanes]int64) {
	panic("recvec: no AVX2 kernel in this build")
}
