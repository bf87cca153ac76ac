package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"difftrace/internal/obs"
	"difftrace/internal/store"
	"difftrace/internal/trace"
)

// writeTracePair synthesizes a small MPI-flavored normal/faulty trace
// pair on disk. variant perturbs the faulty side (and, when bumped,
// produces a distinct pair → distinct job ID).
func writeTracePair(t *testing.T, dir string, variant int) (normal, faulty string) {
	t.Helper()
	funcs := []string{"MPI_Send", "MPI_Recv", "MPI_Barrier", "MPI_Allreduce", "compute"}
	build := func(shift int) []byte {
		set := trace.NewTraceSet()
		for p := 0; p < 4; p++ {
			tr := set.Get(trace.TID(p, 0))
			for i := 0; i < 60; i++ {
				fn := set.Registry.ID(funcs[(i+p*shift+variant)%len(funcs)])
				tr.Append(fn, trace.Enter)
				tr.Append(fn, trace.Exit)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteSetText(&buf, set); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	normal = filepath.Join(dir, fmt.Sprintf("normal_%d.trace", variant))
	faulty = filepath.Join(dir, fmt.Sprintf("faulty_%d.trace", variant))
	if err := os.WriteFile(normal, build(0), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(faulty, build(1), 0o644); err != nil {
		t.Fatal(err)
	}
	return normal, faulty
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc, _, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// An already-expired drain deadline cancels a job still held by
		// Hooks.HoldJob at once instead of waiting for it.
		ctx, cancel := context.WithTimeout(context.Background(), 0)
		defer cancel()
		svc.Stop(ctx) //nolint:errcheck
	})
	return svc
}

// waitState polls until the job reaches a terminal state (done/failed).
func waitState(t *testing.T, svc *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok := svc.Job(id)
		if ok && (v.State == StateDone || v.State == StateFailed) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never settled: %+v", id, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	svc := newTestService(t, Config{})
	dir := t.TempDir()
	normal, faulty := writeTracePair(t, dir, 0)
	cases := []DiffRequest{
		{},               // no paths
		{Normal: normal}, // missing faulty
		{Normal: normal, Faulty: faulty, Filter: "not-a-spec"},
		{Normal: normal, Faulty: faulty, Attr: "bogus"},
		{Normal: normal, Faulty: faulty, Linkage: "bogus"},
		{Normal: filepath.Join(dir, "absent.trace"), Faulty: faulty},
	}
	for i, req := range cases {
		if _, err := svc.Submit(req); err == nil {
			t.Errorf("case %d: bad request admitted: %+v", i, req)
		}
	}
}

func TestJobLifecycleAndCacheHit(t *testing.T) {
	svc := newTestService(t, Config{})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)

	v1, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Cached {
		t.Fatal("first submission claims cached")
	}
	v1 = waitState(t, svc, v1.ID)
	if v1.State != StateDone {
		t.Fatalf("job failed: %s", v1.Error)
	}
	report1, manifest1, ok := svc.Artifacts(v1.ID)
	if !ok {
		t.Fatal("done job has no artifacts")
	}
	if !strings.Contains(string(report1), "DiffTrace report") {
		t.Fatalf("report missing header:\n%s", report1)
	}
	if !bytes.Contains(manifest1, []byte(`"tool": "difftraced"`)) {
		t.Fatalf("manifest missing tool tag:\n%s", manifest1)
	}
	// Scrubbed: no live wall time survives.
	if !bytes.Contains(manifest1, []byte(`"wall_ns": 0`)) && bytes.Contains(manifest1, []byte(`wall_ns`)) {
		t.Errorf("manifest wall time not scrubbed:\n%s", manifest1)
	}

	// Resubmission: cache hit, served from the store with no new run.
	v2, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v1.ID {
		t.Fatalf("same pair got different IDs: %s vs %s", v1.ID, v2.ID)
	}
	if !v2.Cached || v2.State != StateDone {
		t.Fatalf("resubmission not a cache hit: %+v", v2)
	}
	report2, manifest2, _ := svc.Artifacts(v2.ID)
	if !bytes.Equal(report1, report2) || !bytes.Equal(manifest1, manifest2) {
		t.Fatal("cached artifacts differ from originals")
	}
}

func TestWorkerCountDoesNotSplitCache(t *testing.T) {
	dir := t.TempDir()
	normal, faulty := writeTracePair(t, dir, 0)
	req := DiffRequest{Normal: normal, Faulty: faulty}
	svc1 := newTestService(t, Config{Workers: 1})
	svc8 := newTestService(t, Config{Workers: 8})
	v1, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v8, err := svc8.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != v8.ID {
		t.Fatalf("worker count split the pair key: %s vs %s", v1.ID, v8.ID)
	}
}

func TestQueueFullRejects(t *testing.T) {
	obsRun := obs.NewRun("test")
	svc := newTestService(t, Config{
		Concurrency: 1, QueueDepth: 1, Obs: obsRun,
		Hooks: Hooks{HoldJob: 30 * time.Second},
	})
	dir := t.TempDir()
	// Three distinct pairs: one runs (held), one queues, one must bounce.
	// Wait for the worker to claim the first before submitting the second
	// so the depth-1 queue deterministically holds exactly one job.
	n0, f0 := writeTracePair(t, dir, 0)
	v0, err := svc.Submit(DiffRequest{Normal: n0, Faulty: f0})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := svc.Job(v0.ID); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never claimed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	n1, f1 := writeTracePair(t, dir, 1)
	if _, err := svc.Submit(DiffRequest{Normal: n1, Faulty: f1}); err != nil {
		t.Fatal(err)
	}
	n, f := writeTracePair(t, dir, 2)
	_, err = svc.Submit(DiffRequest{Normal: n, Faulty: f})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if svc.RetryAfterSeconds() < 1 {
		t.Fatalf("RetryAfterSeconds = %d", svc.RetryAfterSeconds())
	}
	if obsRun.Counter("service.rejected_full").Value() != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestDedupJoinsInFlightJob(t *testing.T) {
	obsRun := obs.NewRun("test")
	svc := newTestService(t, Config{
		Concurrency: 1, QueueDepth: 4, Obs: obsRun,
		Hooks: Hooks{HoldJob: 30 * time.Second},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	req := DiffRequest{Normal: normal, Faulty: faulty}
	v1, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != v2.ID {
		t.Fatal("identical pair produced two jobs")
	}
	if got := obsRun.Counter("service.dedup_joined").Value(); got != 1 {
		t.Fatalf("dedup_joined = %d, want 1", got)
	}
	if got := obsRun.Counter("service.admitted").Value(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	obsRun := obs.NewRun("test")
	var attempts []int
	svc := newTestService(t, Config{
		Obs: obsRun, MaxAttempts: 4,
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		Hooks: Hooks{BeforeAttempt: func(id string, attempt int) error {
			attempts = append(attempts, attempt)
			if attempt < 3 {
				return fmt.Errorf("injected flake: %w", ErrTransient)
			}
			return nil
		}},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, svc, v.ID)
	if v.State != StateDone {
		t.Fatalf("job failed after retries: %s", v.Error)
	}
	if v.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3", v.Attempts)
	}
	if got := obsRun.Counter("service.retries").Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	if len(attempts) != 3 || attempts[0] != 1 || attempts[2] != 3 {
		t.Fatalf("attempt sequence = %v", attempts)
	}
}

func TestTransientExhaustionFails(t *testing.T) {
	svc := newTestService(t, Config{
		MaxAttempts: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		Hooks: Hooks{BeforeAttempt: func(string, int) error {
			return fmt.Errorf("always down: %w", ErrTransient)
		}},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, _ := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	v = waitState(t, svc, v.ID)
	if v.State != StateFailed || v.Attempts != 2 {
		t.Fatalf("view = %+v, want failed after 2 attempts", v)
	}
	if !strings.Contains(v.Error, "always down") {
		t.Fatalf("error lost: %q", v.Error)
	}
}

func TestFatalErrorDoesNotRetry(t *testing.T) {
	svc := newTestService(t, Config{
		MaxAttempts: 5,
		Hooks: Hooks{BeforeAttempt: func(string, int) error {
			return errors.New("structurally broken")
		}},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, _ := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	v = waitState(t, svc, v.ID)
	if v.State != StateFailed || v.Attempts != 1 {
		t.Fatalf("view = %+v, want failed on first attempt", v)
	}
}

func TestPanicIsolatedIntoJobRecord(t *testing.T) {
	obsRun := obs.NewRun("test")
	svc := newTestService(t, Config{
		Obs: obsRun,
		Hooks: Hooks{BeforeAttempt: func(string, int) error {
			panic("pipeline blew up")
		}},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, _ := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	v = waitState(t, svc, v.ID)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "pipeline blew up") {
		t.Fatalf("panic text lost: %q", v.Error)
	}
	if obsRun.Counter("service.panics").Value() != 1 {
		t.Fatal("panic not counted")
	}
	// The worker survived: a fresh (distinct) job still completes.
	svc.cfg.Hooks.BeforeAttempt = nil
	n2, f2 := writeTracePair(t, t.TempDir(), 1)
	v2, err := svc.Submit(DiffRequest{Normal: n2, Faulty: f2})
	if err != nil {
		t.Fatal(err)
	}
	if v2 = waitState(t, svc, v2.ID); v2.State != StateDone {
		t.Fatalf("post-panic job failed: %s", v2.Error)
	}
}

func TestDeadlineExpiryFailsJob(t *testing.T) {
	svc := newTestService(t, Config{
		MaxAttempts: 3,
		Hooks:       Hooks{HoldJob: 30 * time.Second},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty, TimeoutMs: 50})
	if err != nil {
		t.Fatal(err)
	}
	v = waitState(t, svc, v.ID)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("error = %q, want deadline exceeded", v.Error)
	}
	if v.Attempts != 1 {
		t.Fatalf("deadline expiry retried: %d attempts", v.Attempts)
	}
}

func TestCorruptArtifactQuarantinedNotServed(t *testing.T) {
	storeDir := t.TempDir()
	svc := newTestService(t, Config{StoreDir: storeDir})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, _ := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	v = waitState(t, svc, v.ID)
	if v.State != StateDone {
		t.Fatalf("job failed: %s", v.Error)
	}
	report1, _, _ := svc.Artifacts(v.ID)

	// Corrupt the stored report in place (bit rot / torn write).
	artPath := filepath.Join(storeDir, "objects", v.ID+"-report.art")
	raw, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(artPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The corrupt artifact is never served: Artifacts reads as a miss and
	// the file lands in quarantine.
	if _, _, ok := svc.Artifacts(v.ID); ok {
		t.Fatal("corrupt artifact was served")
	}
	q, err := svc.store.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) == 0 {
		t.Fatal("corrupt artifact not quarantined")
	}

	// Resubmission recomputes (cache miss now) and the fresh report is
	// byte-identical to the original run.
	v2, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Cached {
		t.Fatal("resubmission after quarantine claims cached")
	}
	v2 = waitState(t, svc, v2.ID)
	if v2.State != StateDone {
		t.Fatalf("recompute failed: %s", v2.Error)
	}
	report2, _, ok := svc.Artifacts(v2.ID)
	if !ok {
		t.Fatal("recomputed artifacts missing")
	}
	if !bytes.Equal(report1, report2) {
		t.Fatal("recomputed report differs from the original")
	}

	// A cache hit answers from the bytes its verified read returned.
	hit, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Report != string(report1) {
		t.Fatalf("cache hit: cached=%v, serves the stored report=%v", hit.Cached, hit.Report == string(report1))
	}

	// Corrupt the report again and submit directly, with no Artifacts call
	// between: the submission's own hit check quarantines the file and the
	// same submission recomputes.
	raw, err = os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(artPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	v3, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	if v3.Cached || v3.Report != "" {
		t.Fatal("submission over a corrupt report claims cached")
	}
	quarantined, err := os.ReadFile(filepath.Join(storeDir, "quarantine", v.ID+"-report.art"))
	if err != nil || !bytes.Equal(quarantined, raw) {
		t.Fatalf("corrupt report not quarantined by the submission (err %v)", err)
	}
	v3 = waitState(t, svc, v3.ID)
	if v3.State != StateDone {
		t.Fatalf("recompute failed: %s", v3.Error)
	}
	report3, _, ok := svc.Artifacts(v3.ID)
	if !ok || !bytes.Equal(report1, report3) {
		t.Fatal("report recomputed after a corrupt hit differs from the original")
	}
}

func TestGracefulShutdownDrainsAndPersists(t *testing.T) {
	storeDir := t.TempDir()
	dir := t.TempDir()
	svc := newTestService(t, Config{
		StoreDir: storeDir, Concurrency: 1, QueueDepth: 8,
		Hooks: Hooks{HoldJob: 200 * time.Millisecond},
	})
	// One running (held), two queued.
	var ids []string
	var reqs []DiffRequest
	for i := 0; i < 3; i++ {
		n, f := writeTracePair(t, dir, i)
		req := DiffRequest{Normal: n, Faulty: f}
		v, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		reqs = append(reqs, req)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.QueueDepth() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth 2 (have %d)", svc.QueueDepth())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Generous drain deadline: the running job finishes, the queued two
	// persist.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	persisted, err := svc.Stop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if persisted != 2 {
		t.Fatalf("persisted %d jobs, want 2", persisted)
	}
	if !svc.Draining() {
		t.Fatal("Draining() false after Stop")
	}
	if _, err := svc.Submit(reqs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Stop Submit err = %v, want ErrDraining", err)
	}
	// The in-flight job drained to completion.
	if v, _ := svc.Job(ids[0]); v.State != StateDone {
		t.Fatalf("in-flight job state after drain = %s, want done", v.State)
	}
	if _, err := os.Stat(queueFile(storeDir)); err != nil {
		t.Fatalf("queue.json not written: %v", err)
	}

	// Restart against the same store: the persisted jobs restore, run,
	// and the queue file is consumed.
	svc2 := newTestService(t, Config{StoreDir: storeDir, Concurrency: 2})
	for _, id := range ids[1:] {
		v := waitState(t, svc2, id)
		if v.State != StateDone {
			t.Fatalf("restored job %s failed: %s", id, v.Error)
		}
	}
	if _, err := os.Stat(queueFile(storeDir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("queue.json not consumed on restore: %v", err)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	storeDir := t.TempDir()
	svc := newTestService(t, Config{
		StoreDir: storeDir, Concurrency: 1,
		Hooks: Hooks{HoldJob: 30 * time.Second},
	})
	normal, faulty := writeTracePair(t, t.TempDir(), 0)
	v, err := svc.Submit(DiffRequest{Normal: normal, Faulty: faulty})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds the job mid-run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if cur, _ := svc.Job(v.ID); cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Tiny drain deadline: the held job cannot finish, gets cancelled,
	// and is persisted as queued work for the next boot.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	persisted, err := svc.Stop(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if persisted != 1 {
		t.Fatalf("persisted %d jobs, want the cancelled straggler", persisted)
	}
	// Restart without the hold: the job completes.
	svc2 := newTestService(t, Config{StoreDir: storeDir})
	v2 := waitState(t, svc2, v.ID)
	if v2.State != StateDone {
		t.Fatalf("recovered job failed: %s", v2.Error)
	}
}

func TestCorruptQueueFileDoesNotBrickBoot(t *testing.T) {
	storeDir := t.TempDir()
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queueFile(storeDir), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{StoreDir: storeDir})
	if svc == nil {
		t.Fatal("boot failed on corrupt queue.json")
	}
	if _, err := os.Stat(queueFile(storeDir) + ".corrupt"); err != nil {
		t.Fatalf("corrupt queue.json not preserved for inspection: %v", err)
	}
}

func TestStoreRecoveryAtBoot(t *testing.T) {
	storeDir := t.TempDir()
	st, _, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("deadbeef", KindReport, []byte("artifact")); err != nil {
		t.Fatal(err)
	}
	// Truncate it: the service's boot-time recovery scan must quarantine.
	path := filepath.Join(storeDir, "objects", "deadbeef-report.art")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	svc, recovery, err := New(context.Background(), Config{StoreDir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		svc.Stop(ctx) //nolint:errcheck
	}()
	if recovery.Quarantined() != 1 {
		t.Fatalf("recovery quarantined %d, want 1\n%s", recovery.Quarantined(), recovery.Render())
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(nil) {
		t.Error("nil is transient")
	}
	if !Transient(fmt.Errorf("wrap: %w", ErrTransient)) {
		t.Error("wrapped ErrTransient not transient")
	}
	if Transient(errors.New("plain")) {
		t.Error("plain error transient")
	}
	if Transient(context.DeadlineExceeded) || Transient(context.Canceled) {
		t.Error("ctx verdicts classified transient")
	}
	// Even a Temporary() error is a verdict once a ctx error is in the chain.
	if Transient(fmt.Errorf("%w after %w", ErrTransient, context.Canceled)) {
		t.Error("cancellation chain classified transient")
	}
}
