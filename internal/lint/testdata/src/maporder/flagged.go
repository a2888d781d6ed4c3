// Package maporder holds fixtures for the map-iteration-order taint
// analyzer: values derived from ranging over a map must never reach a
// writer, a hash, an RNG seed, or a heap comparator.
package maporder

import (
	"bufio"
	"container/heap"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
)

// Iteration order leaks straight into the output stream.
func dumpDirect(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `value derived from map iteration order reaches fmt\.Fprintf \(map range at line \d+\); iterate over sorted keys`
	}
}

// Taint propagates through the intermediate string before it hits the
// buffered writer.
func dumpChained(bw *bufio.Writer, m map[string]string) {
	for k := range m {
		line := k + "\n"
		bw.WriteString(line) // want `value derived from map iteration order reaches \(\*bufio\.Writer\)\.WriteString \(map range at line \d+\)`
	}
}

// Feeding keys to a hash in iteration order produces a different digest
// every run.
func hashKeys(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m {
		h.Write([]byte(k)) // want `value derived from map iteration order reaches \(io\.Writer\)\.Write \(map range at line \d+\)`
	}
	return h.Sum64()
}

// Seeding an RNG from whichever key happens to come last is
// run-dependent; both the source construction and the generator wrap
// are sinks.
func seedFromMap(m map[int]float64) *rand.Rand {
	var r *rand.Rand
	for k := range m {
		r = rand.New(rand.NewSource(int64(k))) // want `reaches math/rand\.New ` `reaches math/rand\.NewSource `
	}
	return r
}

// Reseeding a lane from a map key ties its stream to iteration order.
func reseedFromMap(r *rand.Rand, m map[int]bool) {
	for k := range m {
		r.Seed(int64(k)) // want `value derived from map iteration order reaches \(\*math/rand\.Rand\)\.Seed \(map range at line \d+\)`
	}
}

// intHeap is a minimal heap.Interface for the merge-comparator sink.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Heap insertion order from a map range skews what the comparator sees.
func pushAll(h *intHeap, m map[string]int) {
	for k := range m {
		heap.Push(h, len(k)) // want `value derived from map iteration order reaches heap\.Push \(map range at line \d+\)`
	}
}

// dumpSortedKeys is the blessed pattern the suggested fixes rewrite the
// functions above into; it also keeps the sort import live so fixed
// output compiles against the same import block.
func dumpSortedKeys(w io.Writer, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d\n", k, m[k])
	}
}
