// Package rank builds the paper's ranking tables (Tables VI–IX): it sweeps
// parameter combinations — filter specs × attribute configs — through the
// DiffTrace pipeline, computes each combination's B-score between the
// normal and faulty hierarchical clusterings, and reports the suspicious
// processes/threads each combination surfaces, sorted by ascending B-score
// (the most reorganized clusterings, i.e. the most informative parameter
// settings, first).
package rank

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/obs"
	"difftrace/internal/pool"
	"difftrace/internal/trace"
)

// Request describes one sweep.
type Request struct {
	// Specs are filter spec strings ("11.mpi.cust.0K10", ...).
	Specs []string
	// CustomPatterns back the "cust" category in the specs (e.g. "^CPU_").
	CustomPatterns []string
	// Attrs are the attribute configurations to sweep (default: all six).
	Attrs []attr.Config
	// Linkage is the dendrogram method (the paper uses ward everywhere).
	Linkage cluster.Method
	// TopK bounds the suspect lists per row (the paper prints up to 6).
	TopK int
	// Workers is the worker budget of each spec's summarization and each
	// combination's analysis (paper future-work item 1: "optimizing
	// [components] to exploit multi-core CPUs, reducing the overall
	// analysis time"). Combinations run one after another, each with the
	// whole budget; 0 means runtime.GOMAXPROCS(0). Results are identical
	// for every value.
	Workers int
	// Obs, when non-nil, aggregates observability across the whole sweep:
	// every summarization and analysis folds its spans and counters into
	// this one run, each combination gets a "rank/<spec>/<attr>" span, and
	// the sweep loop records utilization under the "rank.sweep" pool site.
	// Nil disables instrumentation at zero cost.
	Obs *obs.Run
}

func (r *Request) defaults() {
	if len(r.Attrs) == 0 {
		r.Attrs = attr.AllConfigs()
	}
	if r.TopK == 0 {
		r.TopK = 6
	}
}

// suspectEps is the minimum similarity-row change for an object to count
// as suspicious.
const suspectEps = 1e-9

// Row is one ranking-table entry.
type Row struct {
	Spec         string
	Attr         attr.Config
	BScore       float64
	TopProcesses []string
	TopThreads   []string
	Report       *core.Report // full pipeline output for drill-down
}

// Table is the assembled ranking table, rows ascending by B-score.
type Table struct {
	Linkage cluster.Method
	Rows    []Row
}

// SweepContext runs every (spec × attrs) combination over the two
// executions. Each spec is summarized once (core.Summarize) and its
// combinations are analyzed from those summaries one after another, so a
// row's report is byte-identical to a standalone core.DiffRun of its
// combination. ctx is observed between combination claims and inside every
// phase, so a sweep honors a caller deadline. A cancelled sweep returns the
// wrapped ctx error — never a partial table. A nil ctx is never cancelled.
func SweepContext(ctx context.Context, normal, faulty *trace.TraceSet, req Request) (*Table, error) {
	req.defaults()
	if len(req.Specs) == 0 {
		return nil, fmt.Errorf("rank: no filter specs given")
	}
	flts := make([]*filter.Filter, len(req.Specs))
	for i, spec := range req.Specs {
		flt, err := filter.ParseSpec(spec, req.CustomPatterns...)
		if err != nil {
			return nil, err
		}
		flts[i] = flt
	}

	req.Obs.Counter("rank.combos").Add(int64(len(flts) * len(req.Attrs)))
	rows := make([]Row, 0, len(flts)*len(req.Attrs))
	for i, flt := range flts {
		spec := req.Specs[i]
		sum, err := core.Summarize(ctx, normal, faulty, core.Config{Filter: flt, Workers: req.Workers, Obs: req.Obs})
		if err != nil {
			return nil, fmt.Errorf("rank: %s: %w", spec, err)
		}
		specRows := make([]Row, len(req.Attrs))
		errs := make([]error, len(req.Attrs))
		runOne := func(j int) {
			ac := req.Attrs[j]
			sp := req.Obs.StartSpan("rank/" + spec + "/" + ac.String())
			defer sp.End()
			rep, err := sum.Analyze(ctx, ac, req.Linkage)
			if err != nil {
				errs[j] = fmt.Errorf("rank: %s/%s: %w", spec, ac, err)
				return
			}
			specRows[j] = Row{
				Spec:         spec,
				Attr:         ac,
				BScore:       rep.Threads.BScore,
				TopProcesses: rep.Processes.TopSuspects(req.TopK, suspectEps),
				TopThreads:   rep.Threads.TopSuspects(req.TopK, suspectEps),
				Report:       rep,
			}
		}
		// One worker: the pool loop still records the rank.sweep site and
		// checks ctx between combinations.
		if err := pool.Do(ctx, req.Obs, "rank.sweep", 1, len(req.Attrs), runOne); err != nil {
			return nil, fmt.Errorf("rank: sweep cancelled: %w", err)
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, specRows...)
	}
	tbl := &Table{Linkage: req.Linkage, Rows: rows}
	sort.SliceStable(tbl.Rows, func(i, j int) bool { return tbl.Rows[i].BScore < tbl.Rows[j].BScore })
	return tbl, nil
}

// Consensus tallies how often each object appears among the top suspects
// across all rows — the "filters all agree that process 5 changed the most"
// reading the paper applies to Table VIII.
func (t *Table) Consensus(processes bool) []ConsensusEntry {
	counts := map[string]int{}
	first := map[string]int{}
	for _, r := range t.Rows {
		list := t.pick(r, processes)
		for i, name := range list {
			counts[name]++
			if i == 0 {
				first[name]++
			}
		}
	}
	out := make([]ConsensusEntry, 0, len(counts))
	for name, c := range counts {
		out = append(out, ConsensusEntry{Name: name, Appearances: c, RankedFirst: first[name]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RankedFirst != out[j].RankedFirst {
			return out[i].RankedFirst > out[j].RankedFirst
		}
		if out[i].Appearances != out[j].Appearances {
			return out[i].Appearances > out[j].Appearances
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (t *Table) pick(r Row, processes bool) []string {
	if processes {
		return r.TopProcesses
	}
	return r.TopThreads
}

// ConsensusEntry is one object's tally across the sweep.
type ConsensusEntry struct {
	Name        string
	Appearances int
	RankedFirst int
}

// Render prints the table in the paper's layout: filter, attributes,
// B-score, top processes, top threads.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-12s %8s  %-22s %s\n",
		"Filter", "Attributes", "B-score", "Top Processes", "Top Threads")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 100))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s %-12s %8.3f  %-22s %s\n",
			r.Spec, r.Attr, r.BScore,
			strings.Join(r.TopProcesses, ", "),
			strings.Join(r.TopThreads, ", "))
	}
	fmt.Fprintf(&b, "(linkage: %s)\n", t.Linkage)
	return b.String()
}
