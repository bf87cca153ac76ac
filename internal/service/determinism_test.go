package service

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"difftrace/internal/obs/olog"
)

// fixturePair returns the repo's checked-in ILCS trace pair — the same
// fixture the FCA golden tests pin.
func fixturePair(t *testing.T) (normal, faulty string) {
	t.Helper()
	root := filepath.Join("..", "..", "testdata", "fca")
	return filepath.Join(root, "ilcs_normal.trace"), filepath.Join(root, "ilcs_faulty.trace")
}

// TestServiceDeterminismWorkersOneVsEight proves the service inherits the
// pipeline's schedule independence end to end: two services — one running
// every job with Workers: 1, one with Workers: 8 — produce byte-identical
// reports AND byte-identical scrubbed obs manifests for the same pair,
// fetched through the HTTP API. This is the service-level extension of
// the CLI's golden manifest determinism suite.
func TestServiceDeterminismWorkersOneVsEight(t *testing.T) {
	normal, faulty := fixturePair(t)
	req := DiffRequest{Normal: normal, Faulty: faulty}

	fetch := func(workers int) (report string, manifest []byte) {
		svc := newTestService(t, Config{Workers: workers})
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		resp, jr := postDiff(t, ts, req)
		if resp.StatusCode != 202 {
			t.Fatalf("workers=%d: POST = %d", workers, resp.StatusCode)
		}
		done := waitJobHTTP(t, ts, jr.ID)
		if done.State != StateDone {
			t.Fatalf("workers=%d: job failed: %s", workers, done.Error)
		}
		return done.Report, done.Manifest
	}

	report1, manifest1 := fetch(1)
	report8, manifest8 := fetch(8)
	if report1 != report8 {
		t.Errorf("reports differ between Workers 1 and 8:\n--- w1 ---\n%s\n--- w8 ---\n%s", report1, report8)
	}
	if !bytes.Equal(manifest1, manifest8) {
		t.Errorf("scrubbed manifests differ between Workers 1 and 8:\n--- w1 ---\n%s\n--- w8 ---\n%s", manifest1, manifest8)
	}
	if len(report1) == 0 || len(manifest1) == 0 {
		t.Fatal("empty artifacts")
	}
}

// TestServiceDeterminismCachedMatchesColdWorkersOne is the acceptance
// gate's cache-vs-cold check: a Workers: 8 service's cached artifact is
// byte-identical to a cold Workers: 1 run of the same pair.
func TestServiceDeterminismCachedMatchesColdWorkersOne(t *testing.T) {
	normal, faulty := fixturePair(t)
	req := DiffRequest{Normal: normal, Faulty: faulty}

	// Cold run at Workers: 1.
	svc1 := newTestService(t, Config{Workers: 1})
	v, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, svc1, v.ID)
	if v.State != StateDone {
		t.Fatalf("cold run failed: %s", v.Error)
	}
	coldReport, coldManifest, _ := svc1.Artifacts(v.ID)

	// Warm run at Workers: 8, then hit its cache.
	svc8 := newTestService(t, Config{Workers: 8})
	w, err := svc8.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	w = waitState(t, svc8, w.ID)
	if w.State != StateDone {
		t.Fatalf("warm run failed: %s", w.Error)
	}
	cached, err := svc8.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second submission not served from cache")
	}
	cachedReport, cachedManifest, ok := svc8.Artifacts(cached.ID)
	if !ok {
		t.Fatal("cached artifacts missing")
	}
	if !bytes.Equal(coldReport, cachedReport) {
		t.Error("cached Workers:8 report differs from cold Workers:1 report")
	}
	if !bytes.Equal(coldManifest, cachedManifest) {
		t.Error("cached Workers:8 manifest differs from cold Workers:1 manifest")
	}
}

// lockedBuf is a race-safe log sink the test can read back after jobs
// settle (settle logs after releasing the job lock, so an unsynchronized
// buffer would race with the HTTP poll observing the done state).
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServiceDeterminismTelemetryNoLeak is the telemetry exemption golden:
// with tracing, structured logging, live progress, and the heap sampler
// all enabled, the stored scrubbed manifest is still byte-identical across
// two services (whose submissions necessarily mint different trace IDs),
// and no trace ID — nor the trace_id key itself — survives Scrub into the
// artifact. The trace ID must instead appear on the job view and in every
// job log line, which is where telemetry is supposed to live.
func TestServiceDeterminismTelemetryNoLeak(t *testing.T) {
	normal, faulty := fixturePair(t)
	req := DiffRequest{Normal: normal, Faulty: faulty}

	fetch := func() (manifest []byte, traceID, logs string) {
		var lb lockedBuf
		svc := newTestService(t, Config{Obs: newObsForTest(), Log: olog.New(&lb, olog.Info)})
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		resp, jr := postDiff(t, ts, req)
		if resp.StatusCode != 202 {
			t.Fatalf("POST = %d", resp.StatusCode)
		}
		done := waitJobHTTP(t, ts, jr.ID)
		if done.State != StateDone {
			t.Fatalf("job failed: %s", done.Error)
		}
		if done.TraceID == "" {
			t.Fatal("done job view has no trace ID")
		}
		return done.Manifest, done.TraceID, lb.String()
	}

	manifest1, tid1, logs1 := fetch()
	manifest2, tid2, _ := fetch()
	if tid1 == tid2 {
		t.Fatalf("two services minted the same trace ID %s", tid1)
	}
	if !bytes.Equal(manifest1, manifest2) {
		t.Errorf("scrubbed manifests differ across trace IDs:\n--- a ---\n%s\n--- b ---\n%s", manifest1, manifest2)
	}
	for _, leak := range []string{"trace_id", tid1, tid2} {
		if strings.Contains(string(manifest1), leak) {
			t.Errorf("scrubbed manifest leaks %q:\n%s", leak, manifest1)
		}
	}
	if !strings.Contains(logs1, tid1) {
		t.Errorf("job logs never mention trace ID %s:\n%s", tid1, logs1)
	}
	if !strings.Contains(logs1, `"msg":"job done"`) {
		t.Errorf("job logs missing completion line:\n%s", logs1)
	}
}
