package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"difftrace/internal/obs/telemetry"
)

// The e2e tests re-exec this test binary as the daemon: TestMain
// dispatches to main() when the marker env var is set, so the chaos
// suite can SIGTERM and restart a real difftraced process without a
// separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("DIFFTRACED_E2E_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// logBuf is a race-safe stderr capture: exec's copier goroutine writes
// into it while a live daemon runs, and the telemetry e2e reads it back
// before the process exits.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one spawned difftraced process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	out  *logBuf
}

// startDaemon boots a difftraced on an ephemeral port and waits for its
// readiness line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	full := append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(exe, full...)
	cmd.Env = append(os.Environ(), "DIFFTRACED_E2E_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errBuf := &logBuf{}
	cmd.Stderr = errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, out: errBuf}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "difftraced: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				ready <- addr
			}
		}
	}()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never became ready; stderr:\n%s", errBuf.String())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait() //nolint:errcheck
		}
	})
	return d
}

// sigterm delivers SIGTERM and waits for a clean exit.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\nstderr:\n%s", err, d.out.String())
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		t.Fatalf("daemon ignored SIGTERM\nstderr:\n%s", d.out.String())
	}
}

type jobResp struct {
	ID       string          `json:"id"`
	TraceID  string          `json:"trace_id"`
	State    string          `json:"state"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error"`
	Report   string          `json:"report"`
	Manifest json.RawMessage `json:"manifest"`
	Progress *struct {
		Stage         string  `json:"stage"`
		Events        int64   `json:"events"`
		EventsPerSec  float64 `json:"events_per_sec"`
		RunMs         int64   `json:"run_ms"`
		PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	} `json:"progress"`
}

func (d *daemon) postDiff(t *testing.T, normal, faulty string) (int, jobResp) {
	t.Helper()
	body := fmt.Sprintf(`{"normal": %q, "faulty": %q}`, normal, faulty)
	resp, err := http.Post(d.base+"/v1/diff", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResp
	json.NewDecoder(resp.Body).Decode(&jr) //nolint:errcheck // non-2xx bodies are error JSON
	return resp.StatusCode, jr
}

func (d *daemon) getJob(t *testing.T, id string) (int, jobResp) {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResp
	json.NewDecoder(resp.Body).Decode(&jr) //nolint:errcheck
	return resp.StatusCode, jr
}

func (d *daemon) waitDone(t *testing.T, id string) jobResp {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, jr := d.getJob(t, id)
		if code == http.StatusOK && (jr.State == "done" || jr.State == "failed") {
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled (last: %d %+v)\ndaemon stderr:\n%s", id, code, jr, d.out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fixturePaths(t *testing.T) (string, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", "testdata", "fca"))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, "ilcs_normal.trace"), filepath.Join(root, "ilcs_faulty.trace")
}

// TestDaemonSigtermMidJobRecoversOnRestart is the service chaos gate:
// boot difftraced, submit the fixture pair, SIGTERM it mid-job (the job
// is held by fault injection so the signal deterministically lands while
// it runs), restart on the same store, and assert the job recovers and
// completes — with the second submission a cache hit whose report is
// byte-identical to a cold Workers:1 run.
func TestDaemonSigtermMidJobRecoversOnRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e")
	}
	normal, faulty := fixturePaths(t)
	storeDir := t.TempDir()

	// Boot A: every job held 30s, drain deadline 300ms — SIGTERM lands
	// mid-job and cannot be outwaited.
	a := startDaemon(t, "-store", storeDir, "-hold-job", "30s", "-drain-timeout", "300ms")
	code, jr := a.postDiff(t, normal, faulty)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	jobID := jr.ID
	// Wait until the job is claimed (running) so the SIGTERM is genuinely
	// mid-job, not pre-claim.
	claimDeadline := time.Now().Add(10 * time.Second)
	for {
		_, cur := a.getJob(t, jobID)
		if cur.State == "running" {
			break
		}
		if time.Now().After(claimDeadline) {
			t.Fatalf("job never claimed: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.sigterm(t)
	logOut := a.out.String()
	if !strings.Contains(logOut, `"msg":"unfinished jobs persisted to queue.json"`) || !strings.Contains(logOut, `"jobs":1`) {
		t.Fatalf("daemon did not persist the interrupted job; stderr:\n%s", logOut)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "queue.json")); err != nil {
		t.Fatalf("queue.json missing after SIGTERM: %v", err)
	}

	// Boot B on the same store, no hold: the persisted job restores and
	// completes.
	b := startDaemon(t, "-store", storeDir)
	done := b.waitDone(t, jobID)
	if done.State != "done" {
		t.Fatalf("recovered job failed: %s", done.Error)
	}
	if !strings.Contains(done.Report, "DiffTrace report") {
		t.Fatalf("recovered job has no report:\n%.400s", done.Report)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "queue.json")); !os.IsNotExist(err) {
		t.Fatalf("queue.json not consumed after recovery: %v", err)
	}

	// Resubmission: cache hit (200, cached, no recompute), identical bytes.
	code2, jr2 := b.postDiff(t, normal, faulty)
	if code2 != http.StatusOK || !jr2.Cached {
		t.Fatalf("resubmission = %d cached=%v, want 200 cached", code2, jr2.Cached)
	}
	if jr2.Report != done.Report || !bytes.Equal(jr2.Manifest, done.Manifest) {
		t.Fatal("cached artifacts differ from the recovered run's")
	}
	b.sigterm(t)

	// Cold Workers:1 reference on a fresh store: the recovered (parallel,
	// crash-interrupted, cache-served) report must match it byte for byte.
	c := startDaemon(t, "-store", t.TempDir(), "-workers", "1")
	code3, jr3 := c.postDiff(t, normal, faulty)
	if code3 != http.StatusAccepted {
		t.Fatalf("cold POST = %d", code3)
	}
	cold := c.waitDone(t, jr3.ID)
	if cold.State != "done" {
		t.Fatalf("cold run failed: %s", cold.Error)
	}
	if cold.Report != done.Report {
		t.Error("recovered report differs from cold Workers:1 report")
	}
	if !bytes.Equal(cold.Manifest, done.Manifest) {
		t.Error("recovered manifest differs from cold Workers:1 manifest")
	}
	c.sigterm(t)
}

// TestDaemonTelemetryE2E is the observability acceptance gate, run against
// a real re-exec'd difftraced: submit a job, watch its live progress and
// trace ID through GET /v1/jobs/{id} while it runs, scrape /metrics
// mid-run and validate the exposition, find the job in /debug/flight after
// it completes, grep its trace ID out of the daemon's JSON log stream, and
// finally confirm the SIGTERM drain dumps the flight ring to the store.
func TestDaemonTelemetryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e")
	}
	normal, faulty := fixturePaths(t)
	storeDir := t.TempDir()
	// The hold keeps the job observably mid-run long enough for the live
	// progress poll and the mid-run scrape.
	d := startDaemon(t, "-store", storeDir, "-hold-job", "2s", "-log-level", "info")

	code, jr := d.postDiff(t, normal, faulty)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	if jr.TraceID == "" {
		t.Fatal("admitted job has no trace ID")
	}
	tid := jr.TraceID

	// Live view: poll until the job is running, then assert the telemetry
	// surface a mid-run GET exposes.
	var live jobResp
	claimDeadline := time.Now().Add(10 * time.Second)
	for {
		_, live = d.getJob(t, jr.ID)
		if live.State == "running" {
			break
		}
		if time.Now().After(claimDeadline) {
			t.Fatalf("job never claimed: %+v", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if live.TraceID != tid {
		t.Fatalf("running view trace ID %q != admitted %q", live.TraceID, tid)
	}
	if live.Progress == nil {
		t.Fatal("running job view has no progress")
	}
	if live.Progress.RunMs < 0 {
		t.Fatalf("running progress: %+v", live.Progress)
	}

	// Mid-run scrape: the default /metrics format must be clean Prometheus
	// exposition text and reflect the in-flight job.
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d, %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if err := telemetry.ValidateText(bytes.NewReader(promBody)); err != nil {
		t.Fatalf("mid-run /metrics fails exposition validation: %v\n%s", err, promBody)
	}
	for _, want := range []string{
		"difftrace_service_admitted_total 1",
		"difftrace_service_jobs_running 1",
	} {
		if !strings.Contains(string(promBody), want) {
			t.Errorf("mid-run /metrics missing %q:\n%s", want, promBody)
		}
	}

	done := d.waitDone(t, jr.ID)
	if done.State != "done" {
		t.Fatalf("job failed: %s", done.Error)
	}

	// Flight recorder: the completed job is in the ring with its trace ID
	// and final counters.
	fresp, err := http.Get(d.base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Records []struct {
			TraceID string `json:"trace_id"`
			JobID   string `json:"job_id"`
			Outcome string `json:"outcome"`
			Events  int64  `json:"events"`
			RunMs   int64  `json:"run_ms"`
		} `json:"records"`
	}
	ferr := json.NewDecoder(fresp.Body).Decode(&flight)
	fresp.Body.Close()
	if ferr != nil || fresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight = %d, %v", fresp.StatusCode, ferr)
	}
	found := false
	for _, rec := range flight.Records {
		if rec.JobID == jr.ID {
			found = true
			if rec.TraceID != tid || rec.Outcome != "done" {
				t.Fatalf("flight record wrong: %+v", rec)
			}
			if rec.Events <= 0 {
				t.Fatalf("flight record has no event count: %+v", rec)
			}
		}
	}
	if !found {
		t.Fatalf("job %s absent from flight ring: %+v", jr.ID, flight.Records)
	}

	// The trace ID threads the whole JSON log stream: admission, attempt,
	// completion.
	logOut := d.out.String()
	if n := strings.Count(logOut, tid); n < 2 {
		t.Fatalf("trace ID %s appears %d times in daemon logs, want >= 2:\n%s", tid, n, logOut)
	}
	for _, want := range []string{`"msg":"job admitted"`, `"msg":"job done"`} {
		if !strings.Contains(logOut, want) {
			t.Errorf("daemon logs missing %s:\n%s", want, logOut)
		}
	}

	// Drain dumps the flight ring beside the store objects.
	d.sigterm(t)
	if _, err := os.Stat(filepath.Join(storeDir, "flight.sidecar")); err != nil {
		t.Fatalf("flight sidecar missing after drain: %v", err)
	}
	if !strings.Contains(d.out.String(), `"msg":"drain complete"`) {
		t.Fatalf("drain completion not logged:\n%s", d.out.String())
	}
}

// TestDaemonHealthzAndMetrics smoke-tests the operational endpoints of a
// live daemon process.
func TestDaemonHealthzAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e")
	}
	d := startDaemon(t, "-store", t.TempDir())
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	m, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m.Body.Close()
	if m.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", m.StatusCode)
	}
	d.sigterm(t)
}
