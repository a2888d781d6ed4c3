package tensor

// SetVectorKernels turns the AVX2 twins of the axpy, exp and prefix-matmul
// loops on or off for tests and returns the previous setting. On stays off
// on a host without AVX2, where both settings run the Go loops.
func SetVectorKernels(on bool) (prev bool) {
	prev = vectorKernels
	vectorKernels = on && haveAVX2()
	return prev
}

// Axpy1 is the dispatching axpy kernel.
var Axpy1 = axpy1
