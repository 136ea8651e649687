//go:build !amd64 || purego

package recvec

// hasAVX2 is false where the assembly kernel is not built: determineWide
// runs determineWideGo.
const hasAVX2 = false

func determineWideAVX2(f, sigma []float64, xs *[WideLanes]float64, out *[WideLanes]int64) {
	panic("recvec: no AVX2 kernel in this build")
}
