//go:build !race

// The zero-alloc assertion is skipped under the race detector, whose
// instrumentation adds allocations that are not the code's own.

package service

import (
	"bytes"
	"context"
	"log/slog"
	"testing"

	"difftrace/internal/obs"
)

// TestJobLoggerFreeWhenLoggingOff: a service without a logger hands each
// job the disabled logger unbound, so admitting a job costs no logger
// allocations; with a logger, the job's lines carry its keys.
func TestJobLoggerFreeWhenLoggingOff(t *testing.T) {
	svc := newTestService(t, Config{})
	if avg := testing.AllocsPerRun(200, func() { _ = svc.jobLogger("0123456789abcdef", "job") }); avg != 0 {
		t.Errorf("jobLogger with logging off: %.1f allocs/op, want 0", avg)
	}

	var buf bytes.Buffer
	on := newTestService(t, Config{Log: obs.NewLogger(&buf, slog.LevelError)})
	on.jobLogger("0123456789abcdef", "job").LogAttrs(context.Background(), slog.LevelError, "x")
	if want := `"msg":"x","trace_id":"0123456789abcdef","job":"job"}`; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Errorf("bound job line = %s, want it to end %s", buf.String(), want)
	}
}
