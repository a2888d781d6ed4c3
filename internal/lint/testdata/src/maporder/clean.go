package maporder

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// Order-free aggregation: the total is tainted but a plain return is
// not an order sink.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Iterating a pre-recorded order slice and indexing into the map is
// deterministic by construction.
func dumpOrdered(w io.Writer, order []string, m map[string]int) {
	for _, name := range order {
		fmt.Fprintf(w, "%s=%d\n", name, m[name])
	}
}

// Collect, sort, iterate: sort.Strings sanitizes the key slice, so the
// second loop's variable is not tainted.
func dumpSorted(w io.Writer, m map[string]int) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s=%d\n", k, m[k]); err != nil {
			return err
		}
	}
	return nil
}

// Reseeding lanes from their index in a slice is deterministic: each
// lane's stream follows from its position alone.
func reseedLanes(rngs []*rand.Rand, seed int64) {
	for l, r := range rngs {
		r.Seed(seed + int64(l))
	}
}
