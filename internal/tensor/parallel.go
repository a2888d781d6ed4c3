package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The matmul kernels shard output rows across a bounded set of extra
// goroutines. A global token budget (rather than a per-call pool) keeps the
// total number of kernel goroutines at the worker limit even when many
// training workers issue matmuls concurrently: a caller takes whatever
// tokens are free and runs the rest of the work inline, so under full
// training parallelism the kernels degrade gracefully to serial instead of
// oversubscribing the machine.
var (
	parLimit  atomic.Int32 // max goroutines (including the caller) per kernel
	parTokens atomic.Int32 // global budget of extra kernel goroutines
)

func init() {
	n := runtime.GOMAXPROCS(0)
	parLimit.Store(int32(n))
	parTokens.Store(int32(n - 1))
}

// parallelMinFlops is the work threshold (multiply-adds) below which a
// kernel always runs serially: spawning a goroutine costs on the order of a
// microsecond, so a shard must carry at least ~256K multiply-adds to pay
// for itself. Each extra worker requires another threshold's worth of work.
const parallelMinFlops = 1 << 18

// SetMatMulWorkers overrides the kernel worker limit (including the calling
// goroutine); n ≤ 1 forces serial kernels. It must not be called while
// matmuls are in flight — intended for tests, benchmarks, and process
// startup.
func SetMatMulWorkers(n int) {
	if n < 1 {
		n = 1
	}
	parLimit.Store(int32(n))
	parTokens.Store(int32(n - 1))
}

// MatMulWorkers returns the current kernel worker limit.
func MatMulWorkers() int { return int(parLimit.Load()) }

// AcquireKernelTokens claims up to n extra-worker tokens from the shared
// budget and returns how many were obtained (possibly zero). Long-running
// phases that spawn their own goroutines — batched sampling workers, most
// notably — reserve their parallelism here so the matmul kernels and the
// phase share one core budget instead of competing: a sampling worker
// holding a token is a core the kernels will not also try to use. Callers
// must return every acquired token with ReleaseKernelTokens.
func AcquireKernelTokens(n int) int {
	acquired := 0
	for acquired < n {
		cur := parTokens.Load()
		if cur <= 0 {
			break
		}
		if parTokens.CompareAndSwap(cur, cur-1) {
			acquired++
		}
	}
	return acquired
}

// ReleaseKernelTokens returns tokens previously obtained from
// AcquireKernelTokens to the shared budget.
func ReleaseKernelTokens(n int) {
	if n > 0 {
		parTokens.Add(int32(n))
	}
}

// kernelCall carries one kernel invocation's operands and per-call
// decisions. It is passed by value, so the serial path of runKernel
// allocates nothing.
type kernelCall struct {
	dst, a, b *Tensor
	// spans, when non-nil, bounds the nonzero column range of the masked
	// operand per row (see MaskedWeight); plain kernels ignore it.
	spans []int
	// win is the weight sub-block a windowed masked kernel reads; other
	// kernels ignore it. covered records that every weight row's span
	// contains the window's columns (windowCovered), so the windowed
	// kernels skip span clipping.
	win     window
	covered bool
	// prod and prefix are matMulTransBRange's product scratch and unit
	// prefixes; other kernels ignore them.
	prod   *Tensor
	prefix []int
	// sparse selects the skip-zero path of the kernels that have one. It
	// is decided once per call over the whole streamed operand, never per
	// row shard: the shard boundaries depend on which worker tokens happen
	// to be free, and the two paths round differently.
	sparse bool
}

// window is the sub-block rows [0, rowEnd) × columns [colOff, colEnd) of a
// masked weight product.
type window struct{ rowEnd, colOff, colEnd int }

// rangeKernel computes the rows [lo, hi) of a kernel call's split
// dimension. Implementations must be safe for concurrent calls on disjoint
// ranges.
type rangeKernel func(c kernelCall, lo, hi int)

// runKernel runs k over [0, rows) split into contiguous shards, using up to
// limit workers when the kernel is large enough and tokens are free. The
// call is threaded by value (rather than captured in a closure) so the
// serial fast path — which dominates for the small per-query DPS matrices —
// performs no heap allocation. Every kernel computes each output element
// from the same operands in the same order whatever the shard bounds, so
// results are bit-identical for any worker count.
func runKernel(rows, flops int, k rangeKernel, c kernelCall) {
	w := int(parLimit.Load())
	if byFlops := flops / parallelMinFlops; w > byFlops {
		w = byFlops
	}
	if w > rows {
		w = rows
	}
	if w > 1 {
		extra := 0
		for extra < w-1 {
			cur := parTokens.Load()
			if cur <= 0 {
				break
			}
			if parTokens.CompareAndSwap(cur, cur-1) {
				extra++
			}
		}
		if extra > 0 {
			workers := extra + 1
			chunk := (rows + workers - 1) / workers
			var wg sync.WaitGroup
			for t := 1; t < workers; t++ {
				lo := t * chunk
				hi := lo + chunk
				if hi > rows {
					hi = rows
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					k(c, lo, hi)
				}(lo, hi)
			}
			if chunk > rows {
				chunk = rows
			}
			k(c, 0, chunk)
			wg.Wait()
			parTokens.Add(int32(extra))
			return
		}
	}
	k(c, 0, rows)
}
