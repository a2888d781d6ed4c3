package spanend

import (
	"errors"

	"sam/internal/obs"
)

var errEarly = errors.New("early")

// A span that is started and never ended leaks an open phase.
func neverEnded(root *obs.Span) {
	sp := root.Child("phase") // want `obs span sp is never ended; add defer sp\.End\(\)`
	sp.SetAttr("k", 1)
}

// Manual ends must cover every exit; the early return escapes this one.
func missingPath(root *obs.Span, fail bool) error {
	sp := root.Child("phase")
	if fail {
		return errEarly // want `obs span sp \(started at line \d+\) is not ended on this path`
	}
	sp.End()
	return nil
}

// In a void function the implicit return is an exit too.
func fallThrough(root *obs.Span, n int) {
	sp := root.Child("phase")
	if n > 0 {
		sp.End()
	}
} // want `obs span sp \(started at line \d+\) is not ended on this path`

// A spill pass that ends manually must cover the error returns too; this
// one leaks the span when the writer fails.
func spillErrorPath(tspan *obs.Span, fail bool) error {
	sp := tspan.Child("A")
	sp.SetAttr("fan_in", 2)
	if fail {
		return errEarly // want `obs span sp \(started at line \d+\) is not ended on this path`
	}
	sp.End()
	return nil
}

// Goroutine closures are function bodies too: a worker span with no End
// leaks one open shard per worker.
func workerLeak(psp *obs.Span, n int) {
	for i := 0; i < n; i++ {
		go func(shard int) {
			sp := psp.Child("shard") // want `obs span sp is never ended; add defer sp\.End\(\)`
			sp.SetAttr("shard", shard)
		}(i)
	}
}

// Reassigning the variable does not hand the first span off: the early
// return leaks it.
func reassignedSpan(root *obs.Span, fail bool) error {
	sp := root.Child("first")
	if fail {
		return errEarly // want `obs span sp \(started at line \d+\) is not ended on this path`
	}
	sp = root.Child("second")
	sp.End()
	return nil
}
