package obs

import (
	"io"
	"testing"
)

// TestNilSafeEntryPoints pins the nil-observer contract: every exported
// obs entry point must be callable on a nil receiver (or with a nil
// registry/hooks argument) without panicking, and must behave as "signal
// disabled". samlint's obsnil analyzer leans on this guarantee.
func TestNilSafeEntryPoints(t *testing.T) {
	var (
		nilSpan  *Span
		nilTrace *Trace
		nilHooks *Hooks
		nilReg   *Registry
	)

	tests := []struct {
		name string
		call func(t *testing.T)
	}{
		{"Span.Child", func(t *testing.T) {
			if got := nilSpan.Child("x"); got != nil {
				t.Fatalf("nil span Child = %v, want nil", got)
			}
		}},
		{"Span.SetAttr", func(t *testing.T) { nilSpan.SetAttr("k", 1) }},
		{"Span.End", func(t *testing.T) { nilSpan.End() }},

		{"Trace.Root", func(t *testing.T) {
			if got := nilTrace.Root(); got != nil {
				t.Fatalf("nil trace Root = %v, want nil", got)
			}
		}},
		{"Trace.WriteJSONL", func(t *testing.T) {
			if err := nilTrace.WriteJSONL(io.Discard); err != nil {
				t.Fatalf("nil trace WriteJSONL = %v, want nil", err)
			}
		}},

		{"Hooks.WantsTrainStep", func(t *testing.T) {
			if nilHooks.WantsTrainStep() {
				t.Fatal("nil hooks WantsTrainStep = true")
			}
		}},
		{"Hooks.WantsTrainEpoch", func(t *testing.T) {
			if nilHooks.WantsTrainEpoch() {
				t.Fatal("nil hooks WantsTrainEpoch = true")
			}
		}},
		{"Hooks.WantsGenProgress", func(t *testing.T) {
			if nilHooks.WantsGenProgress() {
				t.Fatal("nil hooks WantsGenProgress = true")
			}
		}},
		{"Hooks.TrainStep", func(t *testing.T) { nilHooks.TrainStep(TrainStep{}) }},
		{"Hooks.TrainEpoch", func(t *testing.T) { nilHooks.TrainEpoch(TrainEpoch{}) }},
		{"Hooks.GenPhase", func(t *testing.T) { nilHooks.GenPhase(GenPhase{}) }},
		{"Hooks.GenProgress", func(t *testing.T) { nilHooks.GenProgress(GenProgress{}) }},
		{"Hooks.EvalQuery", func(t *testing.T) { nilHooks.EvalQuery(EvalQuery{}) }},
		{"Merge", func(t *testing.T) {
			// All-nil inputs merge to a hooks value that is itself safe.
			Merge(nilHooks, nil).TrainStep(TrainStep{})
		}},

		{"Registry.Counter", func(t *testing.T) {
			c := nilReg.Counter("x")
			if c == nil {
				t.Fatal("nil registry Counter = nil")
			}
			c.Inc() // detached but functional
		}},
		{"Registry.Gauge", func(t *testing.T) {
			g := nilReg.Gauge("x")
			if g == nil {
				t.Fatal("nil registry Gauge = nil")
			}
			g.Set(1.5)
		}},
		{"Registry.Histogram", func(t *testing.T) {
			h := nilReg.Histogram("x", []float64{1, 2})
			if h == nil {
				t.Fatal("nil registry Histogram = nil")
			}
			h.Observe(0.5)
		}},
		{"Registry.CounterVec", func(t *testing.T) {
			v := nilReg.CounterVec("x", "l")
			if v == nil {
				t.Fatal("nil registry CounterVec = nil")
			}
			v.With("a").Inc() // detached but functional
		}},
		{"Registry.GaugeVec", func(t *testing.T) {
			nilReg.GaugeVec("x", "l").With("a").Set(1)
		}},
		{"Registry.HistogramVec", func(t *testing.T) {
			nilReg.HistogramVec("x", []float64{1}, "l").With("a").Observe(0.5)
		}},
		{"CounterVec.With", func(t *testing.T) {
			var v *CounterVec
			v.With("a").Inc()
		}},
		{"GaugeVec.With", func(t *testing.T) {
			var v *GaugeVec
			v.With("a").Set(1)
		}},
		{"HistogramVec.With", func(t *testing.T) {
			var v *HistogramVec
			v.With("a").Observe(1)
		}},
		{"RateMeter", func(t *testing.T) {
			var m *RateMeter
			m.Add(1)
			if m.Rate() != 0 {
				t.Fatal("nil rate meter rate != 0")
			}
		}},
		{"Progress", func(t *testing.T) {
			var p *Progress
			p.Add(1)
			if p.ShouldEmit(0) {
				t.Fatal("nil progress wants to emit")
			}
			if s := p.Snapshot(); s != (ProgressSnapshot{}) {
				t.Fatalf("nil progress snapshot = %+v", s)
			}
		}},
		{"WritePrometheus", func(t *testing.T) {
			if err := WritePrometheus(io.Discard, nilReg); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("nil-receiver call panicked: %v", r)
				}
			}()
			tc.call(t)
		})
	}
}

// TestZeroValueRegistryUsable pins the lazily-allocated-maps behavior: a
// zero-value Registry (not built with NewRegistry) registers and serves
// metrics normally.
func TestZeroValueRegistryUsable(t *testing.T) {
	var r Registry
	r.Counter("a").Add(3)
	r.Gauge("b").Set(2.5)
	r.Histogram("c", []float64{1, 10}).Observe(4)

	s := scrape(t, &r)
	if s["a"] != 3 {
		t.Errorf("counter a = %v, want 3", s["a"])
	}
	if s["b"] != 2.5 {
		t.Errorf("gauge b = %v, want 2.5", s["b"])
	}
	if s["c_count"] != 1 {
		t.Errorf("histogram c count = %v, want 1", s["c_count"])
	}

	// Get-or-create returns the same instance on repeat lookups.
	if r.Counter("a") != r.Counter("a") {
		t.Error("repeat Counter lookups returned different instances")
	}
}
