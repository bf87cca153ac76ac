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
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"difftrace/internal/obs"
	"difftrace/internal/obs/telemetry"
	"difftrace/internal/service"
)

func main() {
	var cfg service.Config
	addr := flag.String("addr", "127.0.0.1:8321", "listen address")
	flag.StringVar(&cfg.StoreDir, "store", "difftraced-store", "artifact store directory")
	flag.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "per-job pipeline worker budget (results do not depend on this)")
	flag.IntVar(&cfg.Concurrency, "concurrency", service.DefaultConcurrency, "jobs run at once")
	flag.IntVar(&cfg.QueueDepth, "queue", service.DefaultQueueDepth, "bounded admission queue depth (full → 429)")
	flag.IntVar(&cfg.MaxAttempts, "max-attempts", service.DefaultMaxAttempts, "tries per job, counting the first")
	flag.DurationVar(&cfg.JobTimeout, "job-timeout", service.DefaultJobTimeout, "per-attempt job deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline for in-flight jobs")
	flag.DurationVar(&cfg.Hooks.HoldJob, "hold-job", 0, "fault injection: hold every job this long before analysis (e2e tests land signals mid-job with it)")
	logLevel := flag.String("log-level", "info", "minimum structured-log level: info, warn, error")
	flag.IntVar(&cfg.FlightSize, "flight-size", telemetry.DefaultFlightSize, "flight recorder ring size (last N completed jobs)")
	flag.Parse()

	lvl, ok := parseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(os.Stderr, "difftraced: unknown -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	cfg.Log = obs.NewLogger(os.Stderr, lvl).With(slog.String("component", "difftraced"))
	cfg.Obs = obs.NewRun("difftraced")

	if err := run(*addr, *drainTimeout, cfg); err != nil {
		cfg.Log.LogAttrs(context.Background(), slog.LevelError, "fatal", slog.Any("err", err))
		os.Exit(1)
	}
}

// parseLevel maps a -log-level value to its slog level; only info, warn
// and error are accepted.
func parseLevel(s string) (slog.Level, bool) {
	switch s {
	case "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

func run(addr string, drainTimeout time.Duration, cfg service.Config) error {
	// The service outlives any single request: its job context is the
	// process context, cancelled only by shutdown. The service, the drain
	// and the log lines take bg, which the signal does not cancel.
	bg := context.Background()
	ctx, stop := signal.NotifyContext(bg, syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	logger := cfg.Log
	svc, recovery, err := service.New(bg, cfg)
	if err != nil {
		return err
	}
	if !recovery.Clean() {
		logger.LogAttrs(bg, slog.LevelWarn, "store recovery was not clean", slog.String("summary", recovery.Summary()))
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
	fmt.Printf("difftraced: listening on %s (store %s)\n", ln.Addr(), cfg.StoreDir)
	logger.LogAttrs(bg, slog.LevelInfo, "listening", slog.String("addr", ln.Addr().String()), slog.String("store", cfg.StoreDir))

	<-ctx.Done()
	logger.LogAttrs(bg, slog.LevelInfo, "shutdown signal received; draining", slog.Int64("drain_timeout_ms", drainTimeout.Milliseconds()))

	drainCtx, cancel := context.WithTimeout(bg, drainTimeout)
	defer cancel()
	persisted, stopErr := svc.Stop(drainCtx)
	if stopErr != nil {
		logger.LogAttrs(bg, slog.LevelError, "drain failed", slog.Any("err", stopErr))
	}
	if persisted > 0 {
		logger.LogAttrs(bg, slog.LevelInfo, "unfinished jobs persisted to queue.sidecar", slog.Int("jobs", persisted))
	}
	shutCtx, cancel2 := context.WithTimeout(bg, 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	if serveErr := <-errCh; serveErr != nil && serveErr != http.ErrServerClosed {
		return serveErr
	}
	logger.LogAttrs(bg, slog.LevelInfo, "exit clean")
	return stopErr
}
