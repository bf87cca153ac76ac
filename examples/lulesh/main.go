// The §V example: the LULESH2 proxy — trace statistics of a fault-free run
// (distinct functions, compressed footprint, NLR reduction at K=10 vs
// K=50), then the injected rank-2 LagrangeLeapFrog fault and its Table IX
// ranking table.
//
//	go run ./examples/lulesh
package main

import (
	"fmt"
	"log"

	"difftrace/internal/apps/lulesh"
	"difftrace/internal/cluster"
	"difftrace/internal/faults"
	"difftrace/internal/nlr"
	"difftrace/internal/parlot"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

func main() {
	// ---- §V statistics on a fault-free run -----------------------------
	reg := trace.NewRegistry()
	tracer := parlot.NewTracerWith(parlot.MainImage, reg)
	if _, err := lulesh.Run(lulesh.Config{
		Procs: 8, Threads: 4, EdgeElems: 10, Regions: 11, Cycles: 2, Tracer: tracer,
	}); err != nil {
		log.Fatal(err)
	}
	set := tracer.Collect()
	procs := set.Processes()
	calls := 0
	for _, p := range procs {
		calls += len(set.ProcessTrace(p).Calls())
	}
	fmt.Println("== LULESH proxy, fault-free (8 procs x 4 threads) ==")
	fmt.Printf("distinct functions:     %d\n", set.DistinctFuncs())
	fmt.Printf("calls per process:      %d\n", calls/len(procs))
	fmt.Printf("compressed per thread:  %.2f KB\n",
		float64(tracer.CompressedBytes())/float64(len(set.Traces))/1024)

	for _, k := range []int{10, 50} {
		tbl := nlr.NewTable()
		total := 0.0
		for _, p := range procs {
			tr := set.ProcessTrace(p)
			elems := nlr.SummarizeTrace(onlyCalls(tr), set.Registry, k, tbl)
			total += nlr.Reduction(len(tr.Calls()), elems)
		}
		fmt.Printf("NLR reduction (K=%2d):   %.2fx\n", k, total/float64(len(procs)))
	}

	// ---- §V fault: rank 2 skips LagrangeLeapFrog ------------------------
	fmt.Println("\n== injected fault: rank 2 never calls LagrangeLeapFrog ==")
	reg2 := trace.NewRegistry()
	collect := func(plan *faults.Plan) *trace.TraceSet {
		tr := parlot.NewTracerWith(parlot.MainImage, reg2)
		res, err := lulesh.Run(lulesh.Config{
			Procs: 8, Threads: 4, EdgeElems: 6, Regions: 11, Cycles: 2,
			Plan: plan, Tracer: tr,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %-14v deadlocked=%v\n", plan, res.Deadlocked)
		return tr.Collect()
	}
	normal := collect(nil)
	plan, err := faults.Named("skipLeapFrog")
	if err != nil {
		log.Fatal(err)
	}
	faulty := collect(plan)

	tbl, err := rank.SweepContext(nil, normal, faulty, rank.Request{
		Specs:   []string{"11.1K10", "01.1K10"},
		Linkage: cluster.Ward,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTable IX-style ranking:\n%s", tbl.Render())

	// The diffNLRs show where each process stopped making progress.
	best := tbl.Rows[0]
	for _, name := range []string{"2", "3"} {
		d, err := best.Report.DiffNLR(best.Report.Processes, name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ndiffNLR(%s) verdict: %s\n", name, d.Verdict())
	}
}

// onlyCalls strips return events so the NLR statistics match the paper's
// call-sequence counting.
func onlyCalls(tr *trace.Trace) *trace.Trace {
	out := &trace.Trace{ID: tr.ID, Truncated: tr.Truncated}
	for _, c := range tr.Calls() {
		out.Append(c, trace.Enter)
	}
	return out
}
