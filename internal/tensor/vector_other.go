//go:build !amd64

package tensor

// haveAVX2 is false off amd64: the vector twins exist only there, and
// every other GOARCH runs the Go loops.
func haveAVX2() bool { return false }

func axpy1AVX2(dst, b []float64, v float64) { panic("tensor: AVX2 kernel called off amd64") }

func expRowMassAVX2(dst, src []float64) (float64, int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func laneTile8AVX2(dst []float64, dstStride int, a []float64, aStride int, w []float64, wStride int, pre []int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func laneTile1AVX2(dst, a, w []float64, wStride int, pre []int) {
	panic("tensor: AVX2 kernel called off amd64")
}
