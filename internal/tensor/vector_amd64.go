package tensor

// haveAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// axpy4AVX2 is axpy4Go over len(b0) elements; every other slice must be at
// least that long, and dst must not partially overlap an operand.
//
//go:noescape
func axpy4AVX2(dst, b0, b1, b2, b3 []float64, v0, v1, v2, v3 float64)

// axpy1AVX2 is axpy1Go over len(b) elements, under axpy4AVX2's conditions.
//
//go:noescape
func axpy1AVX2(dst, b []float64, v float64)

// expRowMassAVX2 runs ExpRowMass's fused loop four entries at a time while
// every entry of a group is within ±expRowSafe. It returns the mass of the
// first n entries, which it has exponentiated into dst; n is a multiple of
// four, and entries from n on are untouched. len(dst) must be at least
// len(src).
//
//go:noescape
func expRowMassAVX2(dst, src []float64) (mass float64, n int)

// laneTile8AVX2 computes eight lanes of MatMulPrefixInto over len(pre)
// units: dst[l·dstStride+j] = Σ_{k < pre[j]} a[l·aStride+k]·w[k·wStride+j]
// for l < 8, rounded exactly as matMulPrefixGo rounds. pre must be
// nondecreasing and every addressed element in bounds; the caller checks
// both.
//
//go:noescape
func laneTile8AVX2(dst []float64, dstStride int, a []float64, aStride int, w []float64, wStride int, pre []int)

// laneTile1AVX2 is laneTile8AVX2 for a single lane.
//
//go:noescape
func laneTile1AVX2(dst, a, w []float64, wStride int, pre []int)
