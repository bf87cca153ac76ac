// Command difftraced is the DiffTrace analysis service: a long-running
// daemon that accepts trace-pair diff jobs over HTTP, runs them through
// the pipeline with bounded concurrency, and persists every artifact in a
// crash-safe content-addressed store.
//
//	difftraced -addr 127.0.0.1:8321 -store /var/lib/difftraced
//
// Endpoints:
//
//	POST /v1/diff      {"normal": "...", "faulty": "...", ...} → job
//	GET  /v1/jobs/{id} job status; running jobs show live progress,
//	                   done jobs embed report + manifest
//	GET  /healthz      200 ok / 503 draining (queue depth in the body)
//	GET  /metrics      Prometheus text exposition (?format=json|summary)
//	GET  /debug/flight last N completed jobs (the flight recorder)
//
// Operational output is structured: every log line is one JSON object on
// stderr, carrying the job's trace ID where one applies. The single
// readiness line on stdout stays plain text — orchestrators parse it.
//
// SIGTERM/SIGINT trigger graceful shutdown: admission stops (503), jobs
// in flight drain under -drain-timeout, stragglers are cancelled, the
// flight recorder dumps to the store, and the queued backlog persists to
// <store>/queue.sidecar for the next boot.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"difftrace/internal/obs"
	"difftrace/internal/obs/olog"
	"difftrace/internal/obs/telemetry"
	"difftrace/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	storeDir := flag.String("store", "difftraced-store", "artifact store directory")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "per-job pipeline worker budget (results do not depend on this)")
	concurrency := flag.Int("concurrency", service.DefaultConcurrency, "jobs run at once")
	queueDepth := flag.Int("queue", service.DefaultQueueDepth, "bounded admission queue depth (full → 429)")
	maxAttempts := flag.Int("max-attempts", service.DefaultMaxAttempts, "tries per job, counting the first")
	jobTimeout := flag.Duration("job-timeout", service.DefaultJobTimeout, "per-attempt job deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline for in-flight jobs")
	holdJob := flag.Duration("hold-job", 0, "fault injection: hold every job this long before analysis (e2e tests land signals mid-job with it)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: info, warn, error")
	flightSize := flag.Int("flight-size", telemetry.DefaultFlightSize, "flight recorder ring size (last N completed jobs)")
	flag.Parse()

	lvl, ok := olog.ParseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(os.Stderr, "difftraced: unknown -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := olog.New(os.Stderr, lvl).With(olog.Str("component", "difftraced"))

	if err := run(*addr, *storeDir, *workers, *concurrency, *queueDepth, *maxAttempts, *jobTimeout, *drainTimeout, *holdJob, *flightSize, logger); err != nil {
		logger.Error("fatal", olog.Err(err))
		os.Exit(1)
	}
}

func run(addr, storeDir string, workers, concurrency, queueDepth, maxAttempts int, jobTimeout, drainTimeout, holdJob time.Duration, flightSize int, logger *olog.Logger) error {
	// The service outlives any single request: its job context is the
	// process context, cancelled only by shutdown.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	obsRun := obs.NewRun("difftraced")
	svc, recovery, err := service.New(context.Background(), service.Config{
		StoreDir:    storeDir,
		Workers:     workers,
		Concurrency: concurrency,
		QueueDepth:  queueDepth,
		MaxAttempts: maxAttempts,
		JobTimeout:  jobTimeout,
		Obs:         obsRun,
		Log:         logger,
		FlightSize:  flightSize,
		Hooks:       service.Hooks{HoldJob: holdJob},
	})
	if err != nil {
		return err
	}
	if !recovery.Clean() {
		logger.Warn("store recovery was not clean", olog.Str("summary", recovery.Summary()))
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	errCh := make(chan error, 1)
	//lint:allow nakedgoroutine http.Serve is joined via errCh below; it returns when srv.Shutdown closes the listener
	go func() { errCh <- srv.Serve(ln) }()
	// Readiness line on stdout: tests and orchestrators parse the bound
	// address (the port may have been chosen by the kernel via :0).
	fmt.Printf("difftraced: listening on %s (store %s)\n", ln.Addr(), storeDir)
	logger.Info("listening", olog.Str("addr", ln.Addr().String()), olog.Str("store", storeDir))

	<-ctx.Done()
	logger.Info("shutdown signal received; draining", olog.Int64("drain_timeout_ms", drainTimeout.Milliseconds()))

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	persisted, stopErr := svc.Stop(drainCtx)
	if stopErr != nil {
		logger.Error("drain failed", olog.Err(stopErr))
	}
	if persisted > 0 {
		logger.Info("unfinished jobs persisted to queue.sidecar", olog.Int("jobs", persisted))
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if serveErr := <-errCh; serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	logger.Info("exit clean")
	return stopErr
}
