// Command difftrace is the DiffTrace analysis front end: it diffs a normal
// execution's trace file against a faulty one (both produced by
// cmd/tracegen, or by any tool emitting the same text format) and reports
// suspicious traces, B-scores, and diffNLR views.
//
// One parameter combination:
//
//	difftrace -normal normal.trace -faulty faulty.trace \
//	    -filter 11.mpiall.0K10 -attr sing.actual -linkage ward -diffnlr 5.0
//
// A ranking-table sweep over several filters and every attribute config:
//
//	difftrace -normal n.trace -faulty f.trace \
//	    -sweep 11.mpi.cust.0K10,11.mpicol.cust.0K10 -custom '^CPU_'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/automaded"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/obs"
	"difftrace/internal/parlot"
	"difftrace/internal/progress"
	"difftrace/internal/rank"
	"difftrace/internal/resilience"
	"difftrace/internal/stat"
	"difftrace/internal/trace"
)

// options carries every knob of one CLI invocation; tests drive run()
// directly with a literal.
type options struct {
	normalPath, faultyPath string
	filterSpec, attrSpec   string
	linkageName            string
	custom                 string // comma-separated custom regexps
	diffTarget             string // trace/process to render diffNLR for
	sweep                  string // comma-separated specs for ranking sweep
	top                    int
	heatmap, lattice       bool
	color, report, triage  bool
	// findDivergence appends the divergence explorer view: the first point
	// each aligned normal/faulty NLR pair parts ways, annotated with the
	// JSM suspect ranking. jsonOut switches it to the machine-readable
	// document (and suppresses the text output around it).
	findDivergence bool
	jsonOut        bool
	// lenient salvages corrupt/truncated trace files instead of failing
	// and runs the pipeline resiliently (per-trace failures isolated).
	lenient bool
	// ingestReport always prints the per-trace degradation report, even
	// for clean reads.
	ingestReport bool
	// workers bounds the intra-run (and sweep) parallelism; output is
	// identical for every value.
	workers int
	// manifestPath, when set, writes the run manifest (config, per-stage
	// timings, metrics, pool utilization, ingestion totals) as JSON there.
	manifestPath string
	// metrics prints the human-readable metrics summary to errW.
	metrics bool
	// pprofAddr serves net/http/pprof on this address for the run.
	pprofAddr string
	// timeout aborts the whole run (ingest and analysis) once elapsed;
	// 0 disables. An expired run exits with exitTimeout, and a partial
	// ingest report still prints under -ingest-report so the operator
	// sees how far the read got.
	timeout time.Duration
	// logJSON emits structured JSON log lines (start/finish, trace ID,
	// config) to errW — the same line shape difftraced writes, so one
	// pipeline can consume logs from both.
	logJSON bool
	// traceID overrides the minted request trace ID, letting a caller
	// correlate a CLI run with its own wider trace. Empty mints one.
	traceID string
	// errW receives the -metrics summary and pprof notices; nil means
	// os.Stderr (tests substitute a buffer).
	errW io.Writer
}

func main() {
	normalPath := flag.String("normal", "", "trace file of the normal execution (required)")
	faultyPath := flag.String("faulty", "", "trace file of the faulty execution (required)")
	filterSpec := flag.String("filter", "11.mpiall.0K10", "filter spec (see Table I; e.g. 11.plt.mem.cust.0K10)")
	attrSpec := flag.String("attr", "sing.noFreq", "attribute config: {sing|doub}.{actual|log10|noFreq}")
	linkageName := flag.String("linkage", "ward", "linkage: single|complete|average|weighted|centroid|median|ward")
	custom := flag.String("custom", "", "comma-separated custom regexps for the 'cust' filter category")
	diffTarget := flag.String("diffnlr", "", "render diffNLR for this trace (e.g. 5.0) or process (e.g. 5)")
	sweep := flag.String("sweep", "", "comma-separated filter specs: run the full ranking-table sweep instead")
	top := flag.Int("top", 6, "suspects to list")
	showHeatmap := flag.Bool("heatmap", false, "print the JSM_D heatmap")
	showLattice := flag.Bool("lattice", false, "build and print the faulty run's concept lattice (thread level)")
	color := flag.Bool("color", false, "ANSI colors in diffNLR output")
	report := flag.Bool("report", false, "print the full debugging report (suspects + diffNLRs of the top suspects)")
	triage := flag.Bool("triage", false, "append the companion analyses: STAT stack classes, AutomaDeD outliers, progress ranking")
	findDivergence := flag.Bool("find-divergence", false, "report the first divergence point of every normal/faulty NLR pair (divergence explorer)")
	jsonOut := flag.Bool("json", false, "with -find-divergence: emit the machine-readable JSON document instead of the rendered table")
	lenient := flag.Bool("lenient", false, "salvage corrupt/truncated trace files instead of failing, and isolate per-trace pipeline failures")
	ingestReport := flag.Bool("ingest-report", false, "print the per-trace ingestion/degradation report")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the analysis pipeline (results do not depend on this)")
	manifest := flag.String("manifest", "", "write the run manifest (per-stage timings, metrics, pool utilization, ingestion totals) as JSON to this file")
	metrics := flag.Bool("metrics", false, "print a human-readable metrics summary to stderr after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the run")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (exit code 3; -ingest-report still prints the partial read)")
	logJSON := flag.Bool("log-json", false, "emit structured JSON log lines (with the run's trace ID) to stderr")
	traceID := flag.String("trace-id", "", "use this request trace ID instead of minting one (correlates the run with a wider trace)")
	flag.Parse()

	if *normalPath == "" || *faultyPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	err := run(os.Stdout, options{
		normalPath: *normalPath, faultyPath: *faultyPath,
		filterSpec: *filterSpec, attrSpec: *attrSpec, linkageName: *linkageName,
		custom: *custom, diffTarget: *diffTarget, sweep: *sweep, top: *top,
		heatmap: *showHeatmap, lattice: *showLattice, color: *color,
		report: *report, triage: *triage,
		findDivergence: *findDivergence, jsonOut: *jsonOut,
		lenient: *lenient, ingestReport: *ingestReport, workers: *workers,
		manifestPath: *manifest, metrics: *metrics, pprofAddr: *pprofAddr,
		timeout: *timeout, logJSON: *logJSON, traceID: *traceID,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "difftrace:", err)
		os.Exit(exitCode(err))
	}
}

// Exit codes: 1 generic failure, 2 usage (flag package convention),
// 3 the -timeout deadline expired — distinct so wrappers can tell "the
// input is bad" from "the input is too big for the budget".
const (
	exitFailure = 1
	exitTimeout = 3
)

func exitCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return exitTimeout
	}
	return exitFailure
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(w io.Writer, o options) (err error) {
	errW := o.errW
	if errW == nil {
		errW = io.Writer(os.Stderr)
	}
	// A nil ctx is never cancelled; -timeout arms a real deadline that
	// every stage (ingest, summarize, cluster, sweep) observes.
	var ctx context.Context
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
	}
	// Every run carries a request trace ID — caller-supplied or minted —
	// so a CLI invocation correlates with wider traces and its own JSON
	// log lines. The ID is stamped on the manifest but scrubbed from any
	// artifact meant to be deterministic.
	tid := obs.TraceID(o.traceID)
	if tid.IsZero() {
		tid = obs.NewTraceID()
	}
	if ctx != nil {
		ctx = obs.WithTraceID(ctx, tid)
	}
	logger := obs.NewLogger(nil, slog.LevelInfo)
	if o.logJSON {
		logger = obs.NewLogger(errW, slog.LevelInfo).With(
			slog.String("component", "difftrace"),
			slog.String("trace_id", string(tid)))
	}
	logger.LogAttrs(ctx, slog.LevelInfo, "run starting",
		slog.String("normal", o.normalPath),
		slog.String("faulty", o.faultyPath),
		slog.String("filter", o.filterSpec),
		slog.String("attr", o.attrSpec),
		slog.String("linkage", o.linkageName),
		slog.Bool("lenient", o.lenient),
		slog.Int("workers", o.workers))
	// Deferred first, so it is the last line of every run, and it says how
	// the run ended: a null err at info, or the error at error level.
	defer func() {
		level := slog.LevelInfo
		if err != nil {
			level = slog.LevelError
		}
		logger.LogAttrs(ctx, level, "run finished", slog.Any("err", err))
	}()
	// The obs run exists only when some output will consume it; a nil run
	// keeps every instrumented layer on its zero-cost fast path.
	var obsRun *obs.Run
	if o.manifestPath != "" || o.metrics {
		obsRun = obs.NewRun("difftrace")
		obsRun.SetTraceID(tid)
		obsRun.SetConfig("normal", o.normalPath)
		obsRun.SetConfig("faulty", o.faultyPath)
		obsRun.SetConfig("filter", o.filterSpec)
		obsRun.SetConfig("attr", o.attrSpec)
		obsRun.SetConfig("linkage", o.linkageName)
		obsRun.SetConfig("sweep", o.sweep)
		obsRun.SetConfig("find_divergence", strconv.FormatBool(o.findDivergence))
		obsRun.SetConfig("lenient", strconv.FormatBool(o.lenient))
		obsRun.SetConfig("workers", strconv.Itoa(o.workers))
	}
	if o.pprofAddr != "" {
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(errW, "pprof: serving http://%s/debug/pprof/\n", ln.Addr())
		//lint:allow nakedgoroutine pprof debug server rides outside the pipeline; it is bounded by the listener closed on return, not by the Workers budget
		go http.Serve(ln, nil) //nolint:errcheck // closed via defer on return
	}

	// Manifest/metrics emission runs on every exit path — a strict read
	// failure or degraded analysis still leaves its observability record
	// (the readers count bytes/lines even on the error path).
	defer func() {
		if obsRun == nil {
			return
		}
		if o.metrics {
			obsRun.WriteSummary(errW)
		}
		if o.manifestPath != "" {
			if werr := writeManifest(o.manifestPath, obsRun); werr != nil {
				fmt.Fprintln(errW, "difftrace: manifest:", werr)
			}
		}
	}()

	if o.jsonOut && !o.findDivergence {
		return errors.New("-json only formats the divergence explorer; pair it with -find-divergence")
	}
	if o.findDivergence && o.sweep != "" {
		return errors.New("-find-divergence does not combine with -sweep: the sweep produces ranking tables, not a single report to explore")
	}

	// In JSON mode stdout carries exactly one machine-readable document, so
	// the human-oriented text around it is dropped.
	textW := w
	if o.findDivergence && o.jsonOut {
		textW = io.Discard
	}

	rdOpts := trace.ReadOptions{Obs: obsRun}
	if o.lenient {
		rdOpts.Mode = trace.Lenient
	}
	// The sweep and triage views replay materialized sets, so they decode a
	// compressed input once up front; every other view reads it compressed.
	materialize := o.sweep != "" || o.triage
	// Both runs must share one registry so function IDs align.
	reg := trace.NewRegistry()
	spIngest := obsRun.StartSpan("ingest")
	normal, nrep, err := readSet(ctx, o.normalPath, reg, rdOpts, materialize)
	if err != nil {
		// A timed-out (or corrupt) read still surfaces how far it got.
		writeIngest(w, o, nrep)
		return err
	}
	faulty, frep, err := readSet(ctx, o.faultyPath, reg, rdOpts, materialize)
	if err != nil {
		writeIngest(w, o, nrep, frep)
		return err
	}
	spIngest.End()
	obsRun.AddIngest(core.IngestTotals(nrep))
	obsRun.AddIngest(core.IngestTotals(frep))
	// Both set types render the same "TraceSet{...}" header.
	fmt.Fprintf(textW, "normal: %s   faulty: %s\n", normal, faulty)
	writeIngest(textW, o, nrep, frep)

	linkage, err := cluster.ParseMethod(o.linkageName)
	if err != nil {
		return err
	}
	customs := splitList(o.custom)

	if o.sweep != "" {
		tbl, err := rank.SweepContext(ctx, normal.(*trace.TraceSet), faulty.(*trace.TraceSet), rank.Request{
			Specs:          splitList(o.sweep),
			CustomPatterns: customs,
			Linkage:        linkage,
			TopK:           o.top,
			Workers:        o.workers,
			Obs:            obsRun,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(w, tbl.Render())
		return nil
	}

	flt, err := filter.ParseSpec(o.filterSpec, customs...)
	if err != nil {
		return err
	}
	ac, err := attr.ParseConfig(o.attrSpec)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Filter: flt, Attr: ac, Linkage: linkage, BuildLattices: o.lattice,
		Resilient: o.lenient, Workers: o.workers, Obs: obsRun,
	}
	rep, err := core.DiffRunContext(ctx, normal, faulty, cfg)
	if err != nil {
		return err
	}
	for _, e := range rep.Degraded {
		fmt.Fprintf(textW, "degraded: %s\n", e)
	}

	// The divergence pass runs off the finished report, so it composes
	// with -report below.
	var div *core.DivergenceReport
	if o.findDivergence {
		div, err = rep.FindDivergenceContext(ctx)
		if err != nil {
			return err
		}
		if o.jsonOut {
			return div.WriteJSON(w)
		}
	}

	if o.report {
		if err := rep.WriteReport(w, core.RenderOptions{
			TopK:     o.top,
			Heatmaps: o.heatmap,
			Lattices: o.lattice,
			Color:    o.color,
		}); err != nil {
			return err
		}
		if o.triage {
			writeTriage(w, flt, normal.(*trace.TraceSet), faulty.(*trace.TraceSet))
		}
		if div != nil {
			fmt.Fprintln(w)
			if err := div.Render(w); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Fprintf(w, "filter=%s attrs=%s linkage=%s\n", flt, ac, linkage)
	fmt.Fprintf(w, "B-score (threads):   %.3f\n", rep.Threads.BScore)
	fmt.Fprintf(w, "B-score (processes): %.3f\n", rep.Processes.BScore)
	fmt.Fprintf(w, "top thread suspects:  %s\n", strings.Join(rep.Threads.TopSuspects(o.top, 1e-9), ", "))
	fmt.Fprintf(w, "top process suspects: %s\n", strings.Join(rep.Processes.TopSuspects(o.top, 1e-9), ", "))

	if o.heatmap {
		fmt.Fprintln(w, "\nJSM_D heatmap (threads):")
		fmt.Fprint(w, rep.Threads.JSMD.Heatmap())
	}
	if o.lattice && rep.Threads.Faulty.Lattice != nil {
		fmt.Fprintln(w, "\nconcept lattice (faulty run, threads):")
		fmt.Fprint(w, rep.Threads.Faulty.Lattice.Render())
	}
	if o.diffTarget != "" {
		level := rep.Threads
		if !strings.Contains(o.diffTarget, ".") {
			level = rep.Processes
		}
		d, err := rep.DiffNLR(level, o.diffTarget)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, d.Render(o.color))
	}
	if o.triage {
		fmt.Fprintln(w)
		writeTriage(w, flt, normal.(*trace.TraceSet), faulty.(*trace.TraceSet))
	}
	if div != nil {
		fmt.Fprintln(w)
		if err := div.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// writeIngest prints the degradation summary: always with -ingest-report,
// and automatically whenever a lenient read had to salvage anything.
func writeIngest(w io.Writer, o options, reps ...*resilience.IngestReport) {
	for _, rep := range reps {
		if rep == nil || (!o.ingestReport && rep.Clean()) {
			continue
		}
		// Summary/RenderTable already lead with the source path.
		if rep.Clean() {
			fmt.Fprintf(w, "ingest %s\n", rep.Summary())
		} else {
			fmt.Fprint(w, "ingest "+rep.RenderTable())
		}
	}
}

// writeManifest serializes the run manifest to path.
func writeManifest(path string, r *obs.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Manifest().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTriage appends the companion analyses (§VI's related-work views) to
// the report: STAT stack classes of the faulty run, AutomaDeD single-run
// outliers, and the relative progress ranking.
func writeTriage(w io.Writer, flt *filter.Filter, normal, faulty *trace.TraceSet) {
	fmt.Fprintln(w, "== companion analyses ==")
	fmt.Fprintln(w, "STAT stack classes (faulty run):")
	fmt.Fprint(w, stat.Build(faulty).Render())
	fn := flt.ApplySet(normal)
	ff := flt.ApplySet(faulty)
	fmt.Fprintln(w, "\nAutomaDeD single-run outliers:")
	fmt.Fprint(w, automaded.Analyze(ff).Render())
	fmt.Fprintln(w, "")
	fmt.Fprint(w, progress.Analyze(fn, ff, flt.K).Render())
}

// readSet loads a trace file in either format through core.ReadSource. A
// compressed input is decoded into a trace.TraceSet when materialize is
// set. Strict errors are prefixed with the path; the IngestReport, named
// after the path, records what a lenient read salvaged.
func readSet(ctx context.Context, path string, reg *trace.Registry, opts trace.ReadOptions, materialize bool) (core.Source, *resilience.IngestReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	s, rep, err := core.ReadSource(ctx, f, reg, opts)
	if rep != nil {
		// Even a partial (timed-out/corrupt) report names its source.
		rep.Source = path
	}
	if ss, ok := s.(*parlot.StreamSet); ok && materialize {
		s, err = ss.Materialize(ctx)
	}
	if err != nil {
		return nil, rep, fmt.Errorf("%s: %w", path, err)
	}
	return s, rep, nil
}
