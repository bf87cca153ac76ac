// Command perfbench is difftrace's seeded benchmark. It runs one of three
// workloads through the layers' exported functions and prints, as the last
// line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 a separate run re-drives the same ops layer by layer on
// one goroutine and reports each layer's self time and counters per op. The
// line before the result is a report object: the host stamp, the sample
// count and percentile behind each timing, the input properties, and the
// metrics that apply to one workload only. README.md explains the
// workloads, the metrics and how to run them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose report digests are recorded in digest.go.
const defaultSeed = 1

// setupReps is how many times each run sets its workload up; setup_s is
// the median, and the last setup is the one the timed phase uses.
const setupReps = 5

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of a -trace 0 run, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_heap_mib", "MiB"},
	{"alloc_mib_per_op", "MiB"},
}

// perLayer lists the metrics of a -trace 1 run, in BENCHMARK.json order.
// Times are self times per traced op; counts are per op. A layer a workload
// never calls reports 0.
var perLayer = []metricSpec{
	{"parlot.read_ms", "ms"}, {"parlot.decode_ms", "ms"}, {"parlot.symbols", "count"}, {"parlot.events_per_byte", "events/B"},
	{"trace.read_ms", "ms"}, {"trace.read_bytes", "B"}, {"trace.name_ms", "ms"}, {"trace.name_calls", "count"}, {"trace.merge_ms", "ms"},
	{"filter.ms", "ms"}, {"filter.events_in", "count"}, {"filter.keep_ratio", "ratio"},
	{"nlr.ms", "ms"}, {"nlr.tokens_in", "count"}, {"nlr.rounds", "count"}, {"nlr.absorb_ms", "ms"},
	{"nlr.table_bodies", "count"}, {"nlr.fold_ratio", "ratio"}, {"nlr.periodic_share", "ratio"},
	{"attr.ms", "ms"}, {"attr.distinct", "count"},
	{"fca.intern_ms", "ms"}, {"fca.attrs", "count"},
	{"jaccard.jsm_ms", "ms"}, {"jaccard.diff_ms", "ms"}, {"jaccard.cells", "count"},
	{"cluster.ms", "ms"}, {"cluster.objects", "count"},
	{"bscore.ms", "ms"}, {"bscore.curve_ms", "ms"},
	{"diffnlr.compute_ms", "ms"}, {"diffnlr.render_ms", "ms"}, {"diffnlr.divergence_ms", "ms"}, {"diffnlr.report_bytes", "B"},
	{"core.report_ms", "ms"},
	{"rank.combos", "count"}, {"rank.nlr_useful_ratio", "ratio"}, {"rank.table_ms", "ms"},
	{"store.put_ms", "ms"}, {"store.put_bytes", "B"}, {"store.get_ms", "ms"}, {"store.hit_ratio", "ratio"},
	{"service.admit_ms", "ms"}, {"service.poll_calls", "count"}, {"service.refused", "count"}, {"service.retries", "count"},
	{"pool.speedup", "ratio"},
	{"go.gc_cycles", "count"}, {"go.gc_cpu_frac", "ratio"},
	{"bench.traced_op_ms", "ms"}, {"bench.span_coverage", "ratio"}, {"bench.trace_overhead_frac", "ratio"},
	{"bench.stream_layers_share", "ratio"}, {"bench.analysis_share", "ratio"}, {"bench.diffnlr_share", "ratio"},
}

// workload is one named benchmark scenario; README.md gives the reason
// for each.
type workload struct {
	name   string
	run    func(b *bench) error // untraced: end-to-end metrics
	traced func(b *bench) error // traced replay: per-layer metrics
}

var workloads = []workload{
	{"stream-loopy", runStream, tracedStream},
	{"sweep-lulesh", runSweep, tracedSweep},
	{"daemon-mix", runDaemon, tracedDaemon},
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string // this run's scratch directory, removed at exit
	spanDir  string // where a traced run writes its span file

	attempted, failed int
	failures          []string
	metrics           map[string]float64   // result-line metrics, by name
	extra             map[string]metricOut // report-line metrics
	timings           map[string]timing    // sample count and percentile behind each timing
	props             map[string]float64   // input-property counters
	digest            string               // report digest of the run's first op
	digestChecked     bool                 // digest compared with the recorded one
	spanFile          string
}

// timing records how a reported timing was derived.
type timing struct {
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile"`
}

// fail records one failed op (errored, refused, or failed an output check).
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// addTiming stores a percentile of samples (milliseconds) as metric name.
func (b *bench) addTiming(name string, samples []float64, p float64) {
	b.metrics[name] = quantile(samples, p)
	b.timings[name] = timing{Samples: len(samples), Percentile: p * 100}
}

// note stores a metric that is printed on the report line only.
func (b *bench) note(name string, v float64, unit string) {
	b.extra[name] = metricOut{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload: stream-loopy | sweep-lulesh | daemon-mix")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	out := flag.String("out", ".bench_build", "directory for generated inputs, stores and span files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*out, "run-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		dir:      dir,
		spanDir:  filepath.Join(*out, "spans"),
		metrics:  map[string]float64{},
		extra:    map[string]metricOut{},
		timings:  map[string]timing{},
		props:    map[string]float64{},
	}
	run := w.run
	specs := endToEnd
	if *traced == 1 {
		run, specs = w.traced, perLayer
	}
	err = run(b)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no op completed")
		os.Exit(1)
	}
	if err := b.print(specs, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricOut is one metric on the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report line and then the result line.
func (b *bench) print(specs []metricSpec, traced bool) error {
	metrics := map[string]metricOut{}
	for _, s := range specs {
		v, ok := b.metrics[s.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	b.note("error_frac", float64(b.failed)/float64(b.attempted), "ratio")
	report := map[string]any{
		"report":         "perfbench",
		"workload":       b.workload,
		"traced":         traced,
		"stamp":          stamp(b.seed, b.seconds),
		"timings":        b.timings,
		"inputs":         b.props,
		"extra":          b.extra,
		"failures":       b.failures,
		"digest":         b.digest,
		"digest_checked": b.digestChecked,
		"span_file":      b.spanFile,
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stamp describes the host and the run settings behind every number.
func stamp(seed int64, seconds time.Duration) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"seed":       seed,
		"seconds":    seconds.Seconds(),
		"setup_reps": setupReps,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where the kernel
// provides one.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
