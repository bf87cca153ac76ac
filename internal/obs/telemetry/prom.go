// Package telemetry is the operator-facing layer above obs: it renders a
// run's metrics registry in the Prometheus text exposition format, keeps a
// flight recorder of recently completed jobs, and ships a small exposition
// validator the e2e tests (and CI) use to prove /metrics emits well-formed
// scrape output.
//
// Everything here is read-side: telemetry never feeds back into the
// pipeline, and none of it is subject to Scrub — a scrape is wall-clock
// truth, not a determinism artifact. The package lives under internal/obs
// so the wallclock lint exemption covers its timestamps.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"difftrace/internal/obs"
)

// sample is one exposition line: name{labels} value.
type sample struct {
	suffix string // appended to the family name ("", "_total", "_bucket", ...)
	labels string // rendered `{k="v",...}` or ""
	value  string
}

// family is one metric family: HELP + TYPE + its samples.
type family struct {
	name    string
	typ     string // "counter" | "gauge" | "histogram"
	help    string
	samples []sample
}

// helpCatalog documents the metrics operators will actually dashboard.
// Families not listed fall back to a generic line naming the obs metric.
var helpCatalog = map[string]string{
	"service.admitted":          "Jobs accepted into the queue.",
	"service.rejected_full":     "Submissions rejected because the queue was full.",
	"service.rejected_draining": "Submissions rejected during drain.",
	"service.cache_hits":        "Submissions answered from the artifact store.",
	"service.dedup_joined":      "Submissions joined onto an identical in-flight job.",
	"service.jobs_done":         "Jobs that completed successfully.",
	"service.jobs_failed":       "Jobs that exhausted retries or hit a fatal error.",
	"service.queue_len":         "Jobs currently queued (admission gauge).",
	"service.jobs_running":      "Jobs currently executing an attempt.",
	"service.heap_peak_bytes":   "Highest per-job sampled heap peak since boot.",
	"service.job_run_ms":        "Per-job run time of completed jobs, milliseconds.",
	"service.job_queued_ms":     "Per-job queue wait of completed jobs, milliseconds.",
	"service.job_events":        "Events decoded per completed job.",
	"ingest.bytes":              "Raw trace bytes read.",
	"ingest.lines":              "Trace lines read.",
	"ingest.events":             "Events decoded from traces.",
	"ingest.dropped":            "Events dropped by lenient salvage.",
	"ingest.synthesized":        "Events synthesized by lenient salvage.",
	"ingest.quarantined_traces": "Traces quarantined during ingest.",
	"ingest.trace_events":       "Events per ingested trace.",
	"run.wall_seconds":          "Wall time since the run (or the daemon) started.",
	"pool.calls":                "Parallel loops run at this pool call site.",
	"pool.items":                "Items processed at this pool call site.",
	"pool.workers":              "Largest worker budget seen at this pool call site.",
	"pool.busy_seconds":         "Total time spent inside loop bodies at this site.",
	"pool.utilization":          "busy / (workers x wall) at this pool call site.",
	"stage.runs":                "Spans recorded at this stage path.",
	"stage.wall_seconds":        "Total span wall time at this stage path.",
	"flight.records":            "Completed jobs currently held by the flight recorder.",
}

func helpFor(orig string) string {
	if h, ok := helpCatalog[orig]; ok {
		return h
	}
	return "DiffTrace metric " + orig + "."
}

// sanitize maps an obs dotted metric name onto the Prometheus grammar:
// every byte outside [a-zA-Z0-9_] becomes '_'. Callers prepend the
// "difftrace_" namespace, which also guarantees a legal leading character.
func sanitize(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel renders a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// WritePrometheus renders the manifest snapshot in the Prometheus text
// exposition format (version 0.0.4): one HELP and TYPE line per family,
// stable sorted ordering, cumulative histogram buckets ending in +Inf.
// A nil manifest writes nothing — nil is off, here as everywhere in obs.
func WritePrometheus(w io.Writer, m *obs.Manifest) error {
	if m == nil {
		return nil
	}
	byName := map[string]*family{}
	add := func(name, typ, orig string, s sample) {
		f := byName[name]
		if f == nil {
			f = &family{name: name, typ: typ, help: helpFor(orig)}
			byName[name] = f
		}
		f.samples = append(f.samples, s)
	}

	add("difftrace_run_wall_seconds", "gauge", "run.wall_seconds",
		sample{value: formatFloat(float64(m.WallNs) / 1e9)})

	for name, v := range m.Counters {
		add("difftrace_"+sanitize(name)+"_total", "counter", name,
			sample{value: formatInt(v)})
	}
	for name, v := range m.Gauges {
		add("difftrace_"+sanitize(name), "gauge", name,
			sample{value: formatInt(v)})
	}
	for name, h := range m.Histograms {
		fam := "difftrace_" + sanitize(name)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			add(fam, "histogram", name, sample{
				suffix: "_bucket",
				labels: `{le="` + formatInt(b.Le) + `"}`,
				value:  formatInt(cum),
			})
		}
		add(fam, "histogram", name, sample{suffix: "_bucket", labels: `{le="+Inf"}`, value: formatInt(h.Count)})
		add(fam, "histogram", name, sample{suffix: "_sum", value: formatInt(h.Sum)})
		add(fam, "histogram", name, sample{suffix: "_count", value: formatInt(h.Count)})
	}
	for _, p := range m.Pool {
		lbl := `{site="` + escapeLabel(p.Site) + `"}`
		add("difftrace_pool_calls_total", "counter", "pool.calls", sample{labels: lbl, value: formatInt(p.Calls)})
		add("difftrace_pool_items_total", "counter", "pool.items", sample{labels: lbl, value: formatInt(p.Items)})
		add("difftrace_pool_workers", "gauge", "pool.workers", sample{labels: lbl, value: formatInt(int64(p.Workers))})
		add("difftrace_pool_busy_seconds", "gauge", "pool.busy_seconds", sample{labels: lbl, value: formatFloat(float64(p.BusyNs) / 1e9)})
		add("difftrace_pool_utilization", "gauge", "pool.utilization", sample{labels: lbl, value: formatFloat(p.Utilization)})
	}
	for _, st := range m.Stages {
		lbl := `{path="` + escapeLabel(st.Path) + `"}`
		add("difftrace_stage_runs_total", "counter", "stage.runs", sample{labels: lbl, value: formatInt(st.Count)})
		add("difftrace_stage_wall_seconds", "gauge", "stage.wall_seconds", sample{labels: lbl, value: formatFloat(float64(st.WallNs) / 1e9)})
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := byName[n]
		// Samples inside a family are already deterministic: histogram
		// buckets arrive in ascending-le order from the snapshot, and
		// labeled pool/stage series follow Manifest()'s sorted site/path
		// order — so a scrape is byte-stable without re-sorting (which
		// would corrupt le ordering: "+Inf" sorts lexically first).
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, s.labels, s.value); err != nil {
				return err
			}
		}
	}
	return nil
}
