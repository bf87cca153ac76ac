//go:build !race

// The zero-alloc assertions are skipped under the race detector, whose
// instrumentation adds allocations that are not the code's own.

package obs

import (
	"errors"
	"testing"

	"difftrace/internal/obs/olog"
)

// assertZeroAllocs pins the nil-off contract's cost model: a disabled
// telemetry surface must not merely be cheap, it must be free — zero
// allocations on the hot path, so instrumented pipeline code needs no
// guards and no build tags.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg != 0 {
		t.Errorf("%s: %.1f allocs/op on the nil path, want 0", name, avg)
	}
}

func TestNilRunZeroAllocs(t *testing.T) {
	var r *Run
	assertZeroAllocs(t, "Counter.Add", func() { r.Counter("t.counter").Add(1) })
	assertZeroAllocs(t, "Gauge.Set", func() { r.Gauge("t.gauge").Set(7) })
	assertZeroAllocs(t, "Histogram.Observe", func() { r.Histogram("t.hist").Observe(42) })
	assertZeroAllocs(t, "Span", func() {
		sp := r.StartSpan("t.stage")
		sp.End()
	})
	assertZeroAllocs(t, "SetConfig", func() { r.SetConfig("k", "v") })
	assertZeroAllocs(t, "SetTraceID", func() { r.SetTraceID("abc123") })
}

func TestNilProgressZeroAllocs(t *testing.T) {
	var p *Progress
	assertZeroAllocs(t, "AddEvents", func() { p.AddEvents(8192) })
	assertZeroAllocs(t, "SetStage", func() { p.SetStage("ingest") })
	assertZeroAllocs(t, "SetHeapPeak", func() { p.SetHeapPeak(1 << 20) })
	assertZeroAllocs(t, "MarkStarted", func() { p.MarkStarted() })
}

var errAlloc = errors.New("static")

func TestNilLoggerZeroAllocs(t *testing.T) {
	var l *olog.Logger
	assertZeroAllocs(t, "Info no fields", func() { l.Info("msg") })
	assertZeroAllocs(t, "Info with fields", func() {
		l.Info("msg", olog.Str("k", "v"), olog.Int("n", 3), olog.Err(errAlloc))
	})
	assertZeroAllocs(t, "With+Warn", func() {
		l.With(olog.Str("trace_id", "t")).Warn("msg", olog.Bool("b", true))
	})
	assertZeroAllocs(t, "Enabled", func() { _ = l.Enabled(olog.Info) })
}

// TestDisabledLevelZeroAllocs: a real logger below threshold is as free as
// a nil one — level gating happens before any field is rendered.
func TestDisabledLevelZeroAllocs(t *testing.T) {
	l := olog.New(discard{}, olog.Error)
	assertZeroAllocs(t, "Info below min level", func() {
		l.Info("msg", olog.Str("k", "v"), olog.Int64("n", 9))
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
