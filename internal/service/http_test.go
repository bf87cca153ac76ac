package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"difftrace/internal/obs"
	"difftrace/internal/obs/telemetry"
)

func postDiff(t *testing.T, ts *httptest.Server, req DiffRequest) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, jr
}

func getJob(t *testing.T, ts *httptest.Server, id string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, jr
}

func waitJobHTTP(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, jr := getJob(t, ts, id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s → %d", id, resp.StatusCode)
		}
		if jr.State == StateDone || jr.State == StateFailed {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled over HTTP: %+v", id, jr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPSubmitPollFetch(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	normal, faulty := writeTracePair(t, t.TempDir(), 0)

	resp, jr := postDiff(t, ts, DiffRequest{Normal: normal, Faulty: faulty})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	if jr.ID == "" || jr.Cached {
		t.Fatalf("bad accepted view: %+v", jr)
	}
	done := waitJobHTTP(t, ts, jr.ID)
	if done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if !strings.Contains(done.Report, "DiffTrace report") {
		t.Fatalf("report missing over HTTP:\n%s", done.Report)
	}
	if len(done.Manifest) == 0 || !bytes.Contains(done.Manifest, []byte(`"tool": "difftraced"`)) {
		t.Fatalf("manifest missing over HTTP: %s", done.Manifest)
	}

	// Resubmission over HTTP: 200 + cached view with artifacts inline.
	resp2, jr2 := postDiff(t, ts, DiffRequest{Normal: normal, Faulty: faulty})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached POST status = %d, want 200", resp2.StatusCode)
	}
	if !jr2.Cached || jr2.Report != done.Report {
		t.Fatalf("cached response mismatch: cached=%v", jr2.Cached)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	svc := newTestService(t, Config{
		Concurrency: 1, QueueDepth: 1,
		Hooks: Hooks{HoldJob: 30 * time.Second},
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	dir := t.TempDir()

	n0, f0 := writeTracePair(t, dir, 0)
	_, jr0 := postDiff(t, ts, DiffRequest{Normal: n0, Faulty: f0})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := svc.Job(jr0.ID); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never claimed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	n1, f1 := writeTracePair(t, dir, 1)
	if resp, _ := postDiff(t, ts, DiffRequest{Normal: n1, Faulty: f1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST status = %d, want 202", resp.StatusCode)
	}
	n2, f2 := writeTracePair(t, dir, 2)
	resp, _ := postDiff(t, ts, DiffRequest{Normal: n2, Faulty: f2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestHTTPDraining503(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz = %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Stop(ctx); err != nil {
		t.Fatal(err)
	}

	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	dresp, _ := postDiff(t, ts, DiffRequest{Normal: normal, Faulty: faulty})
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST = %d, want 503", dresp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", hresp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/diff", "application/json", strings.NewReader("{torn"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", resp.StatusCode)
	}
	if r2, _ := postDiff(t, ts, DiffRequest{Normal: "/does/not/exist", Faulty: "/nope"}); r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing file = %d, want 400", r2.StatusCode)
	}
	r3, err := http.Get(ts.URL + "/v1/diff")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/diff = %d, want 405", r3.StatusCode)
	}
	r4, jr := getJob(t, ts, "no-such-job")
	if r4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404 (%+v)", r4.StatusCode, jr)
	}
}

func TestHTTPMetrics(t *testing.T) {
	svc := newTestService(t, Config{Obs: newObsForTest()})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	_, jr := postDiff(t, ts, DiffRequest{Normal: normal, Faulty: faulty})
	waitJobHTTP(t, ts, jr.ID)

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
		return buf.String(), resp.Header.Get("Content-Type")
	}

	// Default: Prometheus text exposition, and a valid document at that.
	prom, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q, want Prometheus text", ctype)
	}
	if !strings.Contains(prom, "difftrace_service_admitted_total 1") {
		t.Fatalf("/metrics missing admission counter:\n%s", prom)
	}
	if err := telemetry.ValidateText(strings.NewReader(prom)); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, prom)
	}

	// ?format=json: the live manifest, unscrubbed, as JSON.
	jsonBody, ctype := get("/metrics?format=json")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics?format=json content type = %q", ctype)
	}
	var m obs.Manifest
	if err := json.Unmarshal([]byte(jsonBody), &m); err != nil {
		t.Fatalf("/metrics?format=json is not a manifest: %v", err)
	}
	if m.Counters["service.admitted"] != 1 {
		t.Fatalf("manifest admitted = %d, want 1", m.Counters["service.admitted"])
	}

	// ?format=summary: the original human-readable table.
	summary, _ := get("/metrics?format=summary")
	if !strings.Contains(summary, "service.admitted") {
		t.Fatalf("/metrics?format=summary missing admission counter:\n%s", summary)
	}
}

// TestHTTPConcurrentSamePairSharesOneRun floods the API with the same
// pair: one run happens, everyone converges on the same job ID.
func TestHTTPConcurrentSamePairSharesOneRun(t *testing.T) {
	obsRun := newObsForTest()
	svc := newTestService(t, Config{Obs: obsRun, Concurrency: 4})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	req := DiffRequest{Normal: normal, Faulty: faulty}

	const clients = 8
	ids := make(chan string, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, jr := postDiff(t, ts, req)
			ids <- jr.ID
		}()
	}
	first := <-ids
	for i := 1; i < clients; i++ {
		if id := <-ids; id != first {
			t.Fatalf("same pair produced divergent job IDs: %s vs %s", first, id)
		}
	}
	done := waitJobHTTP(t, ts, first)
	if done.State != StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if got := obsRun.Counter("service.admitted").Value(); got != 1 {
		t.Fatalf("admitted = %d, want exactly 1 run for %d clients", got, clients)
	}
}

func newObsForTest() *obs.Run { return obs.NewRun("test") }
