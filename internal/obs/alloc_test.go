//go:build !race

// The zero-alloc assertions are skipped under the race detector, whose
// instrumentation adds allocations that are not the code's own.

package obs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"testing"
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

// TestNilLoggerZeroAllocs: the logger a nil writer gives is free at every
// level.
func TestNilLoggerZeroAllocs(t *testing.T) {
	l := NewLogger(nil, slog.LevelInfo)
	ctx := context.Background()
	assertZeroAllocs(t, "LogAttrs no fields", func() { l.LogAttrs(ctx, slog.LevelInfo, "msg") })
	assertZeroAllocs(t, "LogAttrs with fields", func() {
		l.LogAttrs(ctx, slog.LevelError, "msg", slog.String("k", "v"), slog.Int("n", 3), slog.Any("err", errAlloc))
	})
	assertZeroAllocs(t, "Enabled", func() { _ = l.Enabled(ctx, slog.LevelError) })
}

// TestDisabledLevelZeroAllocs: a real logger below threshold is as free as
// a disabled one — level gating happens before any field is rendered.
func TestDisabledLevelZeroAllocs(t *testing.T) {
	l := NewLogger(io.Discard, slog.LevelError)
	ctx := context.Background()
	assertZeroAllocs(t, "LogAttrs below threshold", func() {
		l.LogAttrs(ctx, slog.LevelInfo, "msg", slog.String("k", "v"), slog.Int64("n", 9), slog.Any("err", errAlloc))
	})
}
