// Package service is difftraced's long-running analysis engine: a bounded
// admission queue in front of the DiffTrace pipeline, backed by the
// crash-safe content-addressed artifact store.
//
// The robustness contract, layer by layer:
//
//   - Admission is bounded. A full queue rejects immediately (the HTTP
//     layer maps this to 429 + Retry-After) instead of queueing unbounded
//     work; a draining service rejects with ErrDraining (503). Nothing is
//     accepted that cannot be accounted for.
//   - Jobs are content-addressed. A job's ID is the pair key — SHA-256
//     over both trace files' raw bytes plus the analysis parameters
//     (worker count deliberately excluded: reports are worker-
//     independent). Resubmitting an identical pair is a cache hit served
//     from the store with no ingestion, NLR, or FCA work; a submission of
//     a pair that is already queued or running joins that job.
//   - Failures are classified. Transient errors (ErrTransient, anything
//     exposing Temporary() bool) retry with capped exponential backoff
//     and deterministic per-job jitter; everything else — parse errors,
//     deadline expiry, cancellation — fails the job once, with the error
//     preserved verbatim in the job record.
//   - Panics are isolated. A panicking pipeline run becomes a job error
//     via resilience.Guard; the worker, the queue, and every other job
//     keep going.
//   - Shutdown is graceful. Stop() halts admission, lets in-flight jobs
//     drain under the caller's deadline, cancels stragglers past it, and
//     persists still-queued work to queue.json so a restart resumes it.
//
// Every job run carries its own obs.Run; the scrubbed manifest is stored
// next to the report and is byte-identical across worker counts — the
// service inherits the pipeline's schedule-independence guarantee.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/obs"
	"difftrace/internal/obs/olog"
	"difftrace/internal/obs/telemetry"
	"difftrace/internal/resilience"
	"difftrace/internal/store"
	"difftrace/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultQueueDepth  = 64
	DefaultConcurrency = 2
	DefaultMaxAttempts = 3
	DefaultRetryBase   = 100 * time.Millisecond
	DefaultRetryMax    = 5 * time.Second
	DefaultJobTimeout  = 5 * time.Minute
)

// Artifact kinds stored per pair key.
const (
	KindReport   = "report"
	KindManifest = "manifest"
)

// Admission errors. The HTTP layer maps these to status codes.
var (
	// ErrQueueFull: the bounded queue has no room; retry later (429).
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining: the service is shutting down; no new work (503).
	ErrDraining = errors.New("service: draining, not accepting work")
)

// ErrTransient marks an error as retryable: wrap injection or
// infrastructure failures with it (fmt.Errorf("...: %w", ErrTransient))
// to opt into the retry/backoff path.
var ErrTransient = errors.New("transient")

// Transient reports whether err should be retried: it is ErrTransient,
// or any error in its chain exposes the net-style Temporary() bool
// contract. Context cancellation and deadline expiry are never
// transient — they are verdicts, not weather.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	var tmp interface{ Temporary() bool }
	return errors.As(err, &tmp) && tmp.Temporary()
}

// Hooks are test-only fault-injection points, the service-level analog of
// the reader chaos operators. Production configs leave them nil/zero.
type Hooks struct {
	// BeforeAttempt runs at the top of every job attempt; a returned
	// error replaces the attempt's pipeline run (wrap ErrTransient to
	// exercise the retry path).
	BeforeAttempt func(jobID string, attempt int) error
	// HoldJob blocks each pipeline run for this long before analysis
	// (respecting the job ctx) — e2e tests use it to land a SIGTERM
	// mid-job deterministically.
	HoldJob time.Duration
}

// Config sizes one Service.
type Config struct {
	// StoreDir roots the artifact store (and queue.json). Required.
	StoreDir string
	// Workers is the per-job pipeline worker budget (0: GOMAXPROCS).
	Workers int
	// Concurrency is how many jobs run at once (0: DefaultConcurrency).
	Concurrency int
	// QueueDepth bounds queued-but-not-running jobs (0: default).
	QueueDepth int
	// MaxAttempts bounds tries per job including the first (0: default).
	MaxAttempts int
	// RetryBase/RetryMax shape the exponential backoff (0: defaults).
	RetryBase, RetryMax time.Duration
	// JobTimeout is the per-attempt deadline (0: default). Requests may
	// shorten it per job, never lengthen it.
	JobTimeout time.Duration
	// Obs receives service-level metrics (admissions, rejections, cache
	// hits, retries, panics). Nil disables at zero cost.
	Obs *obs.Run
	// Log receives structured JSON log lines with each job's trace ID and
	// stage attached. Nil disables at zero cost.
	Log *olog.Logger
	// FlightSize caps the flight recorder's ring of recently completed
	// jobs (0: telemetry.DefaultFlightSize).
	FlightSize int
	// Hooks inject faults in tests.
	Hooks Hooks
}

func (c *Config) defaults() {
	if c.Concurrency <= 0 {
		c.Concurrency = DefaultConcurrency
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = DefaultJobTimeout
	}
}

// DiffRequest is one analysis submission. Paths are server-side; the
// service reads and content-hashes both files at admission, so the job is
// pinned to the bytes that existed then (no TOCTOU between hash and run).
type DiffRequest struct {
	Normal    string `json:"normal"`
	Faulty    string `json:"faulty"`
	Filter    string `json:"filter,omitempty"`     // default 11.mpiall.0K10
	Attr      string `json:"attr,omitempty"`       // default sing.noFreq
	Linkage   string `json:"linkage,omitempty"`    // default ward
	TimeoutMs int    `json:"timeout_ms,omitempty"` // caps at Config.JobTimeout
	// FindDivergence appends the divergence explorer section (first
	// divergence point per aligned NLR pair, suspect-annotated) to the
	// rendered report. It changes the report bytes, so it participates in
	// the artifact cache key.
	FindDivergence bool `json:"find_divergence,omitempty"`
}

func (r *DiffRequest) defaults() {
	if r.Filter == "" {
		r.Filter = "11.mpiall.0K10"
	}
	if r.Attr == "" {
		r.Attr = "sing.noFreq"
	}
	if r.Linkage == "" {
		r.Linkage = "ward"
	}
}

// Job states. The lifecycle is
//
//	queued → running → done
//	                 ↘ failed
//	running → queued            (drain deadline cancelled it; persisted)
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// job is the service's mutable record of one submission.
type job struct {
	id      string
	req     DiffRequest
	traceID obs.TraceID
	prog    *obs.Progress // live telemetry; nil only for interned cache hits
	log     *olog.Logger  // bound to trace_id + job id; nil is off

	// raw bytes pinned at admission; cleared once the job settles.
	normalRaw, faultyRaw   []byte
	normalHash, faultyHash string

	mu          sync.Mutex
	state       JobState
	attempts    int
	err         string
	cached      bool
	manifestSHA string // sha256 of the scrubbed manifest artifact
	degraded    int    // degraded-stage count from the last successful run
}

// JobView is the immutable snapshot handed to callers and the wire shape
// of a job. Progress is attached only while the job runs — it is live
// telemetry (events decoded, events/sec, current stage, peak heap), not
// part of the deterministic result. Report and Manifest carry a done job's
// stored artifacts — the report text and the scrubbed obs manifest that is
// the job's telemetry record — where they were read: by a cache-hit Submit
// and by the HTTP answer for a done job.
type JobView struct {
	ID       string                `json:"id"`
	TraceID  string                `json:"trace_id,omitempty"`
	State    JobState              `json:"state"`
	Attempts int                   `json:"attempts"`
	Cached   bool                  `json:"cached"`
	Error    string                `json:"error,omitempty"`
	Progress *obs.ProgressSnapshot `json:"progress,omitempty"`
	Report   string                `json:"report,omitempty"`
	Manifest json.RawMessage       `json:"manifest,omitempty"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	v := JobView{ID: j.id, TraceID: string(j.traceID), State: j.state, Attempts: j.attempts, Cached: j.cached, Error: j.err}
	running := j.state == StateRunning
	j.mu.Unlock()
	if running && j.prog != nil {
		snap := j.prog.Snapshot()
		v.Progress = &snap
	}
	return v
}

func (j *job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// Service is one running difftraced engine.
type Service struct {
	cfg    Config
	store  *store.Store
	flight *telemetry.FlightRecorder

	queue    chan *job
	stopOnce sync.Once
	stopCh   chan struct{}
	cancel   context.CancelFunc // cancels every in-flight job ctx
	wg       sync.WaitGroup

	draining atomic.Bool
	running  atomic.Int64 // jobs currently inside runJob

	mu   sync.Mutex
	jobs map[string]*job
}

// flightSidecar names the store sidecar the drain-time flight dump uses.
const flightSidecar = "flight"

// queueFile is where Stop persists unfinished work.
func queueFile(storeDir string) string { return filepath.Join(storeDir, "queue.json") }

// New opens the store (running its recovery scan), restores any queue
// persisted by a previous shutdown, and starts the worker loops. ctx
// bounds every job the service will ever run: cancelling it aborts
// in-flight work. The returned IngestReport is the store recovery
// accounting (what a crash cost).
func New(ctx context.Context, cfg Config) (*Service, *resilience.IngestReport, error) {
	cfg.defaults()
	if cfg.StoreDir == "" {
		return nil, nil, fmt.Errorf("service: Config.StoreDir is required")
	}
	st, recovery, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	s := &Service{
		cfg:    cfg,
		store:  st,
		flight: telemetry.NewFlightRecorder(cfg.FlightSize),
		queue:  make(chan *job, cfg.QueueDepth),
		stopCh: make(chan struct{}),
		cancel: cancel,
		jobs:   make(map[string]*job),
	}
	cfg.Obs.Counter("service.store_quarantined").Add(int64(recovery.Quarantined()))
	// A previous drain's flight dump survives restarts: operators can still
	// ask "what ran before the crash". A missing or corrupt sidecar (the
	// store quarantines those) just means an empty recorder.
	if blob, ok, err := st.GetSidecar(flightSidecar); err == nil && ok {
		if rerr := s.flight.Restore(blob); rerr != nil {
			cfg.Log.Warn("flight restore failed", olog.Err(rerr))
		}
	}
	cfg.Log.Info("service starting",
		olog.Str("store", cfg.StoreDir),
		olog.Int("concurrency", cfg.Concurrency),
		olog.Int("queue_depth", cfg.QueueDepth),
		olog.Int("workers", cfg.Workers),
		olog.Int("flight_restored", s.flight.Len()),
		olog.Int("store_quarantined", recovery.Quarantined()))
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		//lint:allow nakedgoroutine worker loop is bounded by Config.Concurrency and joined by Stop via s.wg
		go s.workerLoop(runCtx)
	}
	if err := s.restoreQueue(); err != nil {
		return nil, nil, err
	}
	return s, recovery, nil
}

// QueueDepth reports how many jobs are queued but not yet claimed.
func (s *Service) QueueDepth() int { return len(s.queue) }

// Draining reports whether Stop has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// RetryAfterSeconds is the hint attached to queue-full rejections.
func (s *Service) RetryAfterSeconds() int {
	sec := int((s.cfg.JobTimeout + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// Job returns a snapshot of the job with the given ID.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Artifacts returns the stored report and scrubbed manifest for a done
// job. Corrupt artifacts are quarantined by the store and read as absent.
func (s *Service) Artifacts(id string) (report, manifest []byte, ok bool) {
	rep, repOK, err := s.store.Get(id, KindReport, nil)
	if err != nil || !repOK {
		return nil, nil, false
	}
	man, manOK, err := s.store.Get(id, KindManifest, nil)
	if err != nil || !manOK {
		return nil, nil, false
	}
	return rep, man, true
}

// Submit admits one diff request. It validates the parameters, hashes
// both trace files, and either (a) returns the already-done cached job,
// (b) joins an existing queued/running job for the same pair, or (c)
// enqueues a new job. ErrQueueFull and ErrDraining reject; anything else
// returned is a validation error (the request itself is bad).
func (s *Service) Submit(req DiffRequest) (JobView, error) {
	if s.draining.Load() {
		s.cfg.Obs.Counter("service.rejected_draining").Add(1)
		s.cfg.Log.Warn("submission rejected: draining")
		return JobView{}, ErrDraining
	}
	req.defaults()
	if req.Normal == "" || req.Faulty == "" {
		return JobView{}, fmt.Errorf("service: normal and faulty trace paths are required")
	}
	if _, err := filter.ParseSpec(req.Filter); err != nil {
		return JobView{}, fmt.Errorf("service: %w", err)
	}
	if _, err := attr.ParseConfig(req.Attr); err != nil {
		return JobView{}, fmt.Errorf("service: %w", err)
	}
	if _, err := cluster.ParseMethod(req.Linkage); err != nil {
		return JobView{}, fmt.Errorf("service: %w", err)
	}
	normalRaw, err := os.ReadFile(req.Normal)
	if err != nil {
		return JobView{}, fmt.Errorf("service: normal trace: %w", err)
	}
	faultyRaw, err := os.ReadFile(req.Faulty)
	if err != nil {
		return JobView{}, fmt.Errorf("service: faulty trace: %w", err)
	}
	nh, fh := store.Key(normalRaw), store.Key(faultyRaw)
	// Workers deliberately excluded: the pipeline's output is
	// schedule-independent, so worker count must not split the cache.
	// FindDivergence IS included: it appends a section to the report, so
	// the two variants are distinct artifacts.
	id := store.PairKey(nh, fh, req.Filter, req.Attr, req.Linkage,
		strconv.FormatBool(req.FindDivergence))

	// The trace ID is minted at admission — before the cache check — so
	// even a cache-hit submission is correlatable across logs and flight.
	tid := obs.NewTraceID()

	// Cache hit: both artifacts already stored and intact — the job is
	// done before it starts, no ingestion/NLR/FCA work at all. This is the
	// one verified read of each artifact: a done view carries the bytes,
	// and a corrupt artifact is quarantined by the read and recomputed
	// below.
	if report, manifest, ok := s.Artifacts(id); ok {
		s.cfg.Obs.Counter("service.cache_hits").Add(1)
		j := s.internJob(id, req, nil, nil, nh, fh)
		j.mu.Lock()
		// First sight of this pair since boot: adopt the submission's trace
		// ID and give the hit a flight record; later resubmissions reuse
		// the job's identity (one completion, one record).
		fresh := j.traceID.IsZero()
		if fresh {
			j.traceID = tid
			j.log = s.jobLogger(tid, id)
		}
		if j.state != StateRunning && j.state != StateQueued {
			j.state, j.cached = StateDone, true
		}
		jlog := j.log
		j.mu.Unlock()
		jlog.Info("cache hit", olog.Bool("fresh", fresh))
		if fresh {
			s.flight.Record(telemetry.JobRecord{
				TraceID: string(tid), JobID: id, Outcome: string(StateDone), Cached: true,
			})
		}
		v := j.view()
		if v.State == StateDone {
			v.Report, v.Manifest = string(report), manifest
		}
		return v, nil
	}

	s.mu.Lock()
	if j, exists := s.jobs[id]; exists {
		if v := j.view(); v.State == StateQueued || v.State == StateRunning {
			// Same pair already on its way: share that run.
			s.mu.Unlock()
			s.cfg.Obs.Counter("service.dedup_joined").Add(1)
			j.log.Info("submission joined in-flight job")
			return v, nil
		}
		// done (stale artifacts?) or failed: fall through and requeue.
	}
	j := &job{
		id: id, req: req, state: StateQueued,
		traceID: tid, prog: obs.NewProgress(), log: s.jobLogger(tid, id),
		normalRaw: normalRaw, faultyRaw: faultyRaw,
		normalHash: nh, faultyHash: fh,
	}
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.mu.Unlock()
		s.cfg.Obs.Counter("service.admitted").Add(1)
		s.cfg.Obs.Gauge("service.queue_len").Set(int64(len(s.queue)))
		j.log.Info("job admitted",
			olog.Str("filter", req.Filter),
			olog.Str("attr", req.Attr),
			olog.Str("linkage", req.Linkage),
			olog.Int("queue_len", len(s.queue)))
		return j.view(), nil
	default:
		s.mu.Unlock()
		s.cfg.Obs.Counter("service.rejected_full").Add(1)
		s.cfg.Log.Warn("submission rejected: queue full", olog.Str("trace_id", string(tid)))
		return JobView{}, ErrQueueFull
	}
}

// jobLogger binds the service logger to one job's correlation keys.
func (s *Service) jobLogger(tid obs.TraceID, id string) *olog.Logger {
	return s.cfg.Log.With(olog.Str("trace_id", string(tid)), olog.Str("job", id))
}

// internJob records a job reference for ID lookups without enqueueing
// (cache-hit path).
func (s *Service) internJob(id string, req DiffRequest, nraw, fraw []byte, nh, fh string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j
	}
	j := &job{id: id, req: req, state: StateDone, normalRaw: nraw, faultyRaw: fraw, normalHash: nh, faultyHash: fh}
	s.jobs[id] = j
	return j
}

// workerLoop claims queued jobs until Stop (or ctx cancellation).
func (s *Service) workerLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		// Stop takes priority over a non-empty queue: once draining, the
		// queued backlog is persisted for the next boot, not raced
		// against the drain deadline.
		select {
		case <-s.stopCh:
			return
		case <-ctx.Done():
			return
		default:
		}
		select {
		case <-s.stopCh:
			return
		case <-ctx.Done():
			return
		case j := <-s.queue:
			s.cfg.Obs.Gauge("service.queue_len").Set(int64(len(s.queue)))
			s.runJob(ctx, j)
		}
	}
}

// runJob drives one job through its attempts. The job's trace ID and live
// Progress ride the context from here down through core, pool, and the
// readers — every layer below reads them with zero configuration.
func (s *Service) runJob(ctx context.Context, j *job) {
	j.setState(StateRunning)
	s.cfg.Obs.Gauge("service.jobs_running").Set(s.running.Add(1))
	defer func() {
		s.cfg.Obs.Gauge("service.jobs_running").Set(s.running.Add(-1))
	}()
	j.prog.MarkStarted()
	jctx := obs.WithProgress(obs.WithTraceID(ctx, j.traceID), j.prog)
	timeout := s.cfg.JobTimeout
	if j.req.TimeoutMs > 0 {
		if d := time.Duration(j.req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	var lastErr error
	for attempt := 1; attempt <= s.cfg.MaxAttempts; attempt++ {
		j.mu.Lock()
		j.attempts = attempt
		j.mu.Unlock()
		j.log.Info("attempt starting", olog.Int("attempt", attempt))
		lastErr = s.attempt(jctx, j, attempt, timeout)
		if lastErr == nil {
			s.settle(j, StateDone, "")
			s.cfg.Obs.Counter("service.jobs_done").Add(1)
			return
		}
		if ctx.Err() != nil && s.draining.Load() {
			// The drain deadline cancelled this run, not the job's own
			// deadline: put it back in queued state so Stop persists it
			// for the next boot.
			j.log.Warn("drain cancelled attempt; job requeued for next boot")
			s.settle(j, StateQueued, "")
			return
		}
		if !Transient(lastErr) || attempt == s.cfg.MaxAttempts {
			break
		}
		s.cfg.Obs.Counter("service.retries").Add(1)
		j.log.Warn("transient failure; backing off", olog.Int("attempt", attempt), olog.Err(lastErr))
		if !s.backoff(ctx, j.id, attempt) {
			break // shutdown or cancellation interrupted the wait
		}
	}
	s.settle(j, StateFailed, lastErr.Error())
	s.cfg.Obs.Counter("service.jobs_failed").Add(1)
}

// settle finalizes a job's state and, for terminal states, releases the
// pinned input bytes, folds the job's telemetry into the service registry,
// records it in the flight ring, and logs the verdict.
func (s *Service) settle(j *job, state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.err = errMsg
	terminal := state == StateDone || state == StateFailed
	if terminal {
		j.normalRaw, j.faultyRaw = nil, nil
	}
	attempts, manifestSHA, degraded := j.attempts, j.manifestSHA, j.degraded
	j.mu.Unlock()
	if !terminal {
		return
	}
	snap := j.prog.Snapshot()
	s.cfg.Obs.Histogram("service.job_run_ms").Observe(snap.RunMs)
	s.cfg.Obs.Histogram("service.job_queued_ms").Observe(snap.QueuedMs)
	s.cfg.Obs.Histogram("service.job_events").Observe(snap.Events)
	if pk := int64(snap.PeakHeapBytes); pk > s.cfg.Obs.Gauge("service.heap_peak_bytes").Value() {
		s.cfg.Obs.Gauge("service.heap_peak_bytes").Set(pk)
	}
	s.flight.Record(telemetry.JobRecord{
		TraceID:        string(j.traceID),
		JobID:          j.id,
		Outcome:        string(state),
		Attempts:       attempts,
		Error:          errMsg,
		ManifestSHA256: manifestSHA,
		Stage:          snap.Stage,
		Events:         snap.Events,
		EventsPerSec:   snap.EventsPerSec,
		QueuedMs:       snap.QueuedMs,
		RunMs:          snap.RunMs,
		PeakHeapBytes:  snap.PeakHeapBytes,
		Degraded:       degraded,
	})
	if state == StateDone {
		j.log.Info("job done",
			olog.Int("attempts", attempts),
			olog.Int64("run_ms", snap.RunMs),
			olog.Int64("events", snap.Events),
			olog.Int("degraded", degraded),
			olog.Uint64("peak_heap_bytes", snap.PeakHeapBytes),
			olog.Str("manifest_sha256", manifestSHA))
	} else {
		j.log.Error("job failed",
			olog.Int("attempts", attempts),
			olog.Int64("run_ms", snap.RunMs),
			olog.Str("reason", errMsg))
	}
}

// backoff sleeps the capped-exponential, deterministically-jittered delay
// before the next attempt. Returns false if shutdown or ctx cancellation
// interrupted the wait.
func (s *Service) backoff(ctx context.Context, jobID string, attempt int) bool {
	d := s.cfg.RetryBase << uint(attempt-1)
	if d > s.cfg.RetryMax || d <= 0 {
		d = s.cfg.RetryMax
	}
	// Jitter derives from the job ID and attempt — not from a PRNG or the
	// clock — so a retry schedule is reproducible for a given job yet
	// decorrelated across jobs (no thundering herd after a shared
	// transient).
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", jobID, attempt)))
	jitter := time.Duration(sum[0]) * d / (4 * 256) // up to +25%
	//lint:allow wallclock retry pacing is operational, not analysis: no trace or manifest bytes depend on when the timer fires
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stopCh:
		return false
	case <-ctx.Done():
		return false
	}
}

// attempt runs one pipeline pass for the job under its deadline, with
// panic isolation. Submit already joins a resubmitted pair to its queued or
// running job, so at most one attempt per pair key runs at a time. The
// fault-injection hooks run inside the panic guard so injected panics
// exercise the same isolation path as real ones.
func (s *Service) attempt(ctx context.Context, j *job, attempt int, timeout time.Duration) error {
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	serr := resilience.Guard("service.run", j.id, func() error {
		if hook := s.cfg.Hooks.BeforeAttempt; hook != nil {
			if herr := hook(j.id, attempt); herr != nil {
				return herr
			}
		}
		if hold := s.cfg.Hooks.HoldJob; hold > 0 {
			//lint:allow wallclock fault-injection hook: the hold exists to trigger deadline paths in tests
			t := time.NewTimer(hold)
			select {
			case <-t.C:
			case <-actx.Done():
				t.Stop()
				return fmt.Errorf("service: job %s held past its deadline: %w", j.id, actx.Err())
			}
		}
		return s.pipeline(actx, j)
	})
	if serr == nil {
		return nil
	}
	if strings.HasPrefix(serr.Err.Error(), "panic:") {
		// Guard wraps recovered panics with this prefix.
		s.cfg.Obs.Counter("service.panics").Add(1)
	}
	return serr
}

// pipeline is one full analysis run: parse both pinned inputs, diff,
// render, persist. Always lenient + resilient — a service salvages what
// it can and records what it could not — while cancellation still aborts.
func (s *Service) pipeline(ctx context.Context, j *job) error {
	run := obs.NewRun("difftraced")
	run.SetTraceID(obs.TraceIDFrom(ctx))
	prog := obs.ProgressFrom(ctx)
	// The sampler feeds the job's live peak-heap gauge; the service-level
	// high-water gauge is folded at settle time from the same snapshot.
	hs := obs.StartHeapSamplerInto(50*time.Millisecond, prog)
	defer hs.Stop()
	run.SetConfig("normal_sha256", j.normalHash)
	run.SetConfig("faulty_sha256", j.faultyHash)
	run.SetConfig("filter", j.req.Filter)
	run.SetConfig("attr", j.req.Attr)
	run.SetConfig("linkage", j.req.Linkage)
	run.SetConfig("lenient", "true")

	j.mu.Lock()
	normalRaw, faultyRaw := j.normalRaw, j.faultyRaw
	j.mu.Unlock()
	if normalRaw == nil || faultyRaw == nil {
		// Restored-from-queue jobs re-read their inputs lazily.
		var err error
		if normalRaw, err = os.ReadFile(j.req.Normal); err != nil {
			return fmt.Errorf("service: normal trace: %w", err)
		}
		if faultyRaw, err = os.ReadFile(j.req.Faulty); err != nil {
			return fmt.Errorf("service: faulty trace: %w", err)
		}
	}

	run.SetConfig("find_divergence", fmt.Sprintf("%t", j.req.FindDivergence))

	reg := trace.NewRegistry()
	opts := trace.ReadOptions{Mode: trace.Lenient, Obs: run}
	prog.SetStage("ingest")
	sp := run.StartSpan("ingest")
	normal, nrep, err := core.ReadSource(ctx, bytes.NewReader(normalRaw), reg, opts)
	if err != nil {
		return fmt.Errorf("service: normal trace: %w", err)
	}
	faulty, frep, err := core.ReadSource(ctx, bytes.NewReader(faultyRaw), reg, opts)
	if err != nil {
		return fmt.Errorf("service: faulty trace: %w", err)
	}
	sp.End()
	nrep.Source, frep.Source = "normal", "faulty"
	run.AddIngest(core.IngestTotals(nrep))
	run.AddIngest(core.IngestTotals(frep))

	flt, err := filter.ParseSpec(j.req.Filter)
	if err != nil {
		return err
	}
	ac, err := attr.ParseConfig(j.req.Attr)
	if err != nil {
		return err
	}
	linkage, err := cluster.ParseMethod(j.req.Linkage)
	if err != nil {
		return err
	}
	ccfg := core.Config{
		Filter: flt, Attr: ac, Linkage: linkage,
		Resilient: true, Workers: s.cfg.Workers, Obs: run,
	}
	rep, err := core.DiffRunContext(ctx, normal, faulty, ccfg)
	if err != nil {
		return err
	}

	prog.SetStage("render")
	var report bytes.Buffer
	writeIngestSection(&report, nrep, frep)
	for _, e := range rep.Degraded {
		fmt.Fprintf(&report, "degraded: %s\n", e)
	}
	if err := rep.WriteReport(&report, core.RenderOptions{TopK: 6}); err != nil {
		return err
	}
	if j.req.FindDivergence {
		div, derr := rep.FindDivergenceContext(ctx)
		if derr != nil {
			return derr
		}
		report.WriteByte('\n')
		if err := div.Render(&report); err != nil {
			return err
		}
	}

	manifest := run.Manifest()
	obs.Scrub(manifest)
	var manifestJSON bytes.Buffer
	if err := manifest.WriteJSON(&manifestJSON); err != nil {
		return err
	}
	// The flight record carries the scrubbed artifact's digest so an operator
	// can tie a flight entry to the exact stored manifest bytes.
	sum := sha256.Sum256(manifestJSON.Bytes())
	j.mu.Lock()
	j.manifestSHA = fmt.Sprintf("%x", sum)
	j.degraded = len(rep.Degraded)
	j.mu.Unlock()

	prog.SetStage("persist")
	if err := s.store.Put(j.id, KindReport, report.Bytes()); err != nil {
		return err
	}
	return s.store.Put(j.id, KindManifest, manifestJSON.Bytes())
}

// writeIngestSection prepends the degradation record to the report so a
// salvaged run is never mistaken for a clean one.
func writeIngestSection(w *bytes.Buffer, reps ...*resilience.IngestReport) {
	for _, rep := range reps {
		if rep == nil || rep.Clean() {
			continue
		}
		fmt.Fprint(w, "ingest "+rep.RenderTable())
	}
}

// persistedQueue is queue.json's schema.
type persistedQueue struct {
	Version int           `json:"version"`
	Jobs    []DiffRequest `json:"jobs"`
}

// Stop shuts the service down gracefully: admission stops (Submit returns
// ErrDraining), workers finish their current jobs under ctx's deadline,
// stragglers past the deadline are cancelled, and every job still queued
// (or cancelled mid-run by the deadline) is persisted to queue.json for
// the next boot. Returns the number of jobs persisted.
func (s *Service) Stop(ctx context.Context) (int, error) {
	s.draining.Store(true)
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.cfg.Log.Info("drain starting",
		olog.Int("queue_len", len(s.queue)),
		olog.Int64("running", s.running.Load()))

	done := make(chan struct{})
	//lint:allow nakedgoroutine bounded: wg.Wait returns once the Concurrency workers exit; the goroutine is joined via done before Stop returns on the happy path and leaks at most until process exit on the deadline path
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline expired: cancel in-flight job contexts and wait
		// for the (now promptly-aborting) workers.
		s.cfg.Log.Warn("drain deadline expired; cancelling in-flight jobs")
		s.cancel()
		<-done
	}
	s.cancel()

	// The flight dump is the drain's black box: everything that completed
	// recently, persisted through the store's self-verifying sidecar so the
	// next boot (or a post-mortem) can read it back. A dump failure must not
	// fail the drain — it is telemetry, not state.
	var flightBuf bytes.Buffer
	if err := s.flight.WriteJSON(&flightBuf); err == nil {
		if perr := s.store.PutSidecar(flightSidecar, flightBuf.Bytes()); perr != nil {
			s.cfg.Log.Warn("flight dump failed", olog.Err(perr))
		} else {
			s.cfg.Log.Info("flight dump persisted", olog.Int("records", s.flight.Len()))
		}
	}

	// Collect unfinished work: still-buffered queue entries plus jobs a
	// cancelled run pushed back to queued.
	var pending []DiffRequest
	seen := map[string]bool{}
	for {
		select {
		case j := <-s.queue:
			j.setState(StateQueued)
			pending = append(pending, j.req)
			seen[j.id] = true
			continue
		default:
		}
		break
	}
	s.mu.Lock()
	for id, j := range s.jobs {
		if !seen[id] && j.view().State == StateQueued {
			pending = append(pending, j.req)
			seen[id] = true
		}
	}
	s.mu.Unlock()
	sort.Slice(pending, func(i, k int) bool {
		return pending[i].Normal+pending[i].Faulty < pending[k].Normal+pending[k].Faulty
	})
	if len(pending) == 0 {
		os.Remove(queueFile(s.cfg.StoreDir))
		s.cfg.Log.Info("drain complete", olog.Int("persisted", 0))
		return 0, nil
	}
	blob, err := json.MarshalIndent(persistedQueue{Version: 1, Jobs: pending}, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("service: persist queue: %w", err)
	}
	tmp := queueFile(s.cfg.StoreDir) + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return 0, fmt.Errorf("service: persist queue: %w", err)
	}
	if err := os.Rename(tmp, queueFile(s.cfg.StoreDir)); err != nil {
		return 0, fmt.Errorf("service: persist queue: %w", err)
	}
	s.cfg.Log.Info("drain complete", olog.Int("persisted", len(pending)))
	return len(pending), nil
}

// restoreQueue resubmits work persisted by a previous shutdown. Requests
// whose inputs vanished in between fail admission individually; the rest
// still restore.
func (s *Service) restoreQueue() error {
	path := queueFile(s.cfg.StoreDir)
	blob, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("service: restore queue: %w", err)
	}
	var pq persistedQueue
	if err := json.Unmarshal(blob, &pq); err != nil {
		// A torn queue.json must not brick the boot: quarantine it
		// in-place by renaming, and start empty.
		os.Rename(path, path+".corrupt")
		s.cfg.Obs.Counter("service.queue_restore_corrupt").Add(1)
		s.cfg.Log.Warn("queue restore: corrupt queue.json quarantined", olog.Str("path", path+".corrupt"))
		return nil
	}
	os.Remove(path)
	restored := 0
	for _, req := range pq.Jobs {
		if _, err := s.Submit(req); err != nil && !errors.Is(err, ErrQueueFull) {
			s.cfg.Obs.Counter("service.queue_restore_failed").Add(1)
			s.cfg.Log.Warn("queue restore: submission failed",
				olog.Str("normal", req.Normal), olog.Str("faulty", req.Faulty), olog.Err(err))
			continue
		}
		restored++
		s.cfg.Obs.Counter("service.queue_restored").Add(1)
	}
	if restored > 0 {
		s.cfg.Log.Info("queue restored", olog.Int("jobs", restored))
	}
	return nil
}
