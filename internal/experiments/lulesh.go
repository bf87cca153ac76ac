package experiments

import (
	"fmt"
	"io"

	"difftrace/internal/cluster"
	"difftrace/internal/filter"
	"difftrace/internal/nlr"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

// specFilter parses a filter spec that is expected to be well-formed at
// compile time; a failure surfaces as a validated error (wrapped so callers
// can errors.Is against filter parse errors), per the panic discipline.
func specFilter(spec string, custom ...string) (*filter.Filter, error) {
	f, err := filter.ParseSpec(spec, custom...)
	if err != nil {
		return nil, fmt.Errorf("experiments: bad built-in filter spec %q: %w", spec, err)
	}
	return f, nil
}

// LULESHStats reproduces the §V trace statistics: distinct function calls
// per execution, compressed bytes per thread, decompressed calls per
// process, and the NLR sequence reduction at K=10 vs K=50.
//
// The paper reports ≈410 distinct functions, ≈2.8 KB compressed per thread,
// ≈421503 calls per process, and reductions of 1.92× (K=10) and 16.74×
// (K=50) on the XSEDE Bridges runs of real LULESH2 under Pin. The proxy's
// Regions knob is set to 42 so the distinct-function count lands in the
// paper's range (real LULESH gets there via libc noise the proxy lacks);
// EdgeElems/Cycles set the call volume.
func LULESHStats(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	reg := trace.NewRegistry()
	set, res, err := runLULESH(reg, nil, 14, 42, 3)
	if err != nil {
		return nil, err
	}
	if res.Deadlocked {
		o.fail("fault-free LULESH deadlocked")
	}

	distinct := set.DistinctFuncs()
	o.metric("distinct_functions", "%d (paper: ~410)", distinct)
	if distinct < 300 || distinct > 500 {
		o.fail("distinct functions = %d, outside the paper's regime", distinct)
	}

	// Calls per process (enter events only, all threads of the process).
	procs := set.Processes()
	totalCalls := 0
	for _, p := range procs {
		totalCalls += len(set.ProcessTrace(p).Calls())
	}
	callsPerProc := totalCalls / len(procs)
	o.metric("calls_per_process", "%d (paper: ~421503)", callsPerProc)
	if callsPerProc < 10000 {
		o.fail("calls per process = %d, trace too small to be representative", callsPerProc)
	}

	// NLR reduction factors at K=10 and K=50 on each process trace.
	red := func(k int) float64 {
		tbl := nlr.NewTable()
		sum := 0.0
		for _, p := range procs {
			tr := set.ProcessTrace(p)
			calls := tr.Calls()
			filtered := &trace.Trace{ID: tr.ID}
			for _, c := range calls {
				filtered.Append(c, 0)
			}
			elems := nlr.SummarizeTrace(filtered, set.Registry, k, tbl)
			sum += nlr.Reduction(len(calls), elems)
		}
		return sum / float64(len(procs))
	}
	r10 := red(10)
	r50 := red(50)
	o.metric("nlr_reduction_K10", "%.2fx (paper: 1.92x)", r10)
	o.metric("nlr_reduction_K50", "%.2fx (paper: 16.74x)", r50)
	if r10 <= 1 {
		o.fail("K=10 reduction %.2f should exceed 1", r10)
	}
	if r50 <= r10 {
		o.fail("K=50 reduction %.2f should exceed K=10's %.2f", r50, r10)
	}

	fmt.Fprintln(w, "§V statistics — LULESH proxy (8 procs × 4 threads)")
	for _, k := range o.sortedMetricKeys() {
		fmt.Fprintf(w, "  %-24s %s\n", k, o.Metrics[k])
	}
	return o, nil
}

// TableIX reproduces the LULESH ranking table: with rank 2 skipping
// LagrangeLeapFrog, the job stalls and every process appears among the
// suspects ("all of the process IDs appeared in the table").
func TableIX(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	reg := trace.NewRegistry()
	normal, _, err := runLULESH(reg, nil, 6, 11, 2)
	if err != nil {
		return nil, err
	}
	faulty, fres, err := runLULESH(reg, skipLeapFrogPlan, 6, 11, 2)
	if err != nil {
		return nil, err
	}
	if !fres.Deadlocked {
		o.fail("skipping LagrangeLeapFrog did not stall the job")
	}
	tbl, err := rank.SweepContext(nil, normal, faulty, rank.Request{
		Specs:   []string{"11.1K10", "01.1K10"},
		Linkage: cluster.Ward,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table IX — ranking table for LULESH (rank 2 skips LagrangeLeapFrog)")
	fmt.Fprint(w, tbl.Render())

	// Shape: the stall implicates most processes (the paper: "all of the
	// process IDs appeared in the table"; each row lists at most 6, so we
	// require broad coverage across rows rather than literal completeness).
	seen := map[string]bool{}
	for _, r := range tbl.Rows {
		for _, p := range r.TopProcesses {
			seen[p] = true
		}
	}
	o.metric("processes_flagged", "%d/8", len(seen))
	if len(seen) < 6 {
		o.fail("only %d processes flagged; the stall should implicate most", len(seen))
	}
	// The faulty rank must be flagged — and here it tops the consensus.
	cons := tbl.Consensus(true)
	if len(cons) == 0 || !seen["2"] {
		o.fail("faulty rank 2 never flagged")
	} else {
		o.metric("top_process_consensus", "%s (first in %d/%d rows)",
			cons[0].Name, cons[0].RankedFirst, len(tbl.Rows))
	}
	return o, nil
}
