package spanend

import "sam/internal/obs"

// defer sp.End() covers every path by construction.
func deferred(root *obs.Span) {
	sp := root.Child("phase")
	defer sp.End()
	sp.SetAttr("k", 1)
}

// End inside a deferred closure also counts.
func deferredClosure(root *obs.Span) {
	sp := root.Child("phase")
	defer func() {
		sp.End()
	}()
	sp.SetAttr("k", 1)
}

// Manual ends are fine when every exit is covered.
func manualBothPaths(root *obs.Span, fail bool) error {
	sp := root.Child("phase")
	if fail {
		sp.End()
		return errEarly
	}
	sp.End()
	return nil
}

// An early End before the early return covers the later exits too.
func endBeforeReturns(root *obs.Span, fail bool) error {
	sp := root.Child("phase")
	sp.SetAttr("k", 1)
	sp.End()
	if fail {
		return errEarly
	}
	return nil
}

// Returning the span hands ownership to the caller: an explicit escape.
func handoff(root *obs.Span) *obs.Span {
	sp := root.Child("phase")
	return sp
}

// Storing the span passes ownership too.
func stored(root *obs.Span, sink *struct{ Sp *obs.Span }) {
	sp := root.Child("phase")
	sink.Sp = sp
}

// The streaming spill passes end manually before every error return
// (pass A cannot defer: its wall time feeds the StreamPass event).
func spillPass(tspan *obs.Span, fail bool) error {
	sp := tspan.Child("A")
	sp.SetAttr("fan_in", 2)
	if fail {
		sp.End()
		return errEarly
	}
	if err := work(); err != nil {
		sp.End()
		return err
	}
	sp.End()
	return nil
}

// Pass B wraps itself in an immediately-invoked closure so one defer
// covers the early error returns inside.
func spillPassClosure(tspan *obs.Span) error {
	return func() error {
		sp := tspan.Child("B")
		defer sp.End()
		if err := work(); err != nil {
			return err
		}
		return nil
	}()
}

// Shard workers run as goroutine closures; the deferred End inside the
// FuncLit covers the worker's exits.
func shardWorkers(psp *obs.Span, n int) {
	for i := 0; i < n; i++ {
		go func(shard int) {
			sp := psp.Child("shard")
			sp.SetAttr("shard", shard)
			defer sp.End()
			_ = work()
		}(i)
	}
}

func work() error { return nil }

// spanend counts every use of a span other than a method call as a
// hand-off, so the next two are not analyzed further. closeleak treats
// the same shapes as ordinary use of a file (see its flagged fixtures).

// A comparison hands the span off.
func comparedSpan(root *obs.Span) {
	sp := root.Child("phase")
	if sp == nil {
		return
	}
	sp.SetAttr("k", 1)
}

// So does a method value: whoever calls end ends the span.
func methodValueSpan(root *obs.Span, later func(func())) {
	sp := root.Child("phase")
	end := sp.End
	later(end)
}
