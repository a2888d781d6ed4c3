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

// acquireKernelTokens claims up to n extra-worker tokens from the shared
// budget and returns how many were obtained (possibly zero). runKernel
// returns every acquired token with releaseKernelTokens.
func acquireKernelTokens(n int) int {
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

// releaseKernelTokens returns tokens obtained from acquireKernelTokens to
// the shared budget.
func releaseKernelTokens(n int) {
	if n > 0 {
		parTokens.Add(int32(n))
	}
}

// kernelCall is one call of the product kernel: columns [lo, head) of
// dst = a[:, :k]·b[:k, off+lo:off+head] over a's rows split across
// workers, every unit summing the same prefix k on MatMulPrefixInto's
// kernel. With prod set, the rows go into prod's columns [lo, head) first
// and are then added into dst's: the kernel sums from +0, so a product
// that adds into a gradient is formed whole before it meets it. It is
// passed by value, so the serial path of runKernel allocates nothing.
type kernelCall struct {
	dst, a, b, prod  *Tensor
	off, k, lo, head int
}

// rows computes rows [lo, hi) of the call; concurrent calls on disjoint
// row ranges are safe.
func (c kernelCall) rows(lo, hi int) {
	out := c.dst
	if c.prod != nil {
		out = c.prod
	}
	matMulSharedRows(out, c.a, c.b, c.off, c.k, c.lo, c.head, lo, hi)
	if c.prod == nil {
		return
	}
	for i := lo; i < hi; i++ {
		// dst + 1·p is dst + p, bit for bit: axpy1 is the vector add.
		axpy1(c.dst.Data[i*c.dst.Cols+c.lo:], out.Data[i*out.Cols+c.lo:i*out.Cols+c.head], 1)
	}
}

// runKernel runs c over a's rows split into contiguous shards, using up to
// limit workers when the call is large enough and tokens are free. The
// call is threaded by value (rather than captured in a closure) so the
// serial fast path — which dominates for the small per-query DPS matrices —
// performs no heap allocation. The kernel computes each output element
// from the same operands in the same order whatever the shard bounds, so
// results are bit-identical for any worker count.
func runKernel(c kernelCall) {
	rows := c.a.Rows
	w := int(parLimit.Load())
	if byFlops := rows * c.k * (c.head - c.lo) / parallelMinFlops; w > byFlops {
		w = byFlops
	}
	if w > rows {
		w = rows
	}
	if w > 1 {
		if extra := acquireKernelTokens(w - 1); extra > 0 {
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
					c.rows(lo, hi)
				}(lo, hi)
			}
			if chunk > rows {
				chunk = rows
			}
			c.rows(0, chunk)
			wg.Wait()
			releaseKernelTokens(extra)
			return
		}
	}
	c.rows(0, rows)
}
