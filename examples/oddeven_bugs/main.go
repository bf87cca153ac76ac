// The §II walk-through: every artifact of the paper's odd/even example.
//
// It reproduces, in order, Table II (pre-processed traces), Table III
// (their NLR), Table IV (the formal context), Figure 3 (the concept
// lattice), Figure 4 (the JSM heatmap), and then both injected bugs of
// §II-G with their Figure 5/6 diffNLR views.
//
//	go run ./examples/oddeven_bugs
package main

import (
	"fmt"
	"log"
	"strings"

	"difftrace/internal/apps/oddeven"
	"difftrace/internal/attr"
	"difftrace/internal/core"
	"difftrace/internal/faults"
	"difftrace/internal/fca"
	"difftrace/internal/filter"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

func main() {
	// ---- Tables II-IV and Figures 3-4: the 4-rank fault-free run -------
	reg := trace.NewRegistry()
	tracer := parlot.NewTracerWith(parlot.MainImage, reg)
	if _, err := oddeven.Run(oddeven.Config{Procs: 4, Seed: 5, Tracer: tracer}); err != nil {
		log.Fatal(err)
	}
	set := filter.New(filter.MPIAll).ApplySet(tracer.Collect())

	fmt.Println("== Table II: pre-processed traces (MPI filter) ==")
	fmt.Println(set.Dump(0))

	fmt.Println("== Table III: NLR (K=10) ==")
	tbl := nlr.NewTable()
	sums := nlr.SummarizeSet(set, 10, tbl)
	for _, id := range set.IDs() {
		fmt.Printf("T%d: %s\n", id.Process, strings.Join(nlr.Tokens(sums[id]), "  "))
	}
	all := make([]int, tbl.Len())
	for i := range all {
		all[i] = i
	}
	fmt.Print(tbl.Legend(all))

	fmt.Println("\n== Table IV: formal context ==")
	ac := attr.Config{Kind: attr.Single, Freq: attr.NoFreq}
	// One interner for every object: the lattice and JSM kernels below
	// then run on shared dense attribute IDs (popcount fast path).
	in := attr.NewInterner()
	ctx := fca.NewContext()
	lattice := fca.NewLattice()
	attrs := map[string]fca.AttrSet{}
	for _, id := range set.IDs() {
		name := fmt.Sprintf("T%d", id.Process)
		a := attr.ExtractIn(in, sums[id], ac)
		attrs[name] = a
		ctx.AddObject(name, a)
		lattice.AddObject(name, a)
	}
	fmt.Print(ctx.CrossTable())

	fmt.Println("\n== Figure 3: concept lattice ==")
	fmt.Print(lattice.Render())

	fmt.Println("\n== Figure 4: Jaccard similarity matrix ==")
	jsm := jaccard.New(attrs)
	fmt.Print(jsm.String())

	// ---- §II-G: swapBug and dlBug at 16 ranks ---------------------------
	for _, bug := range []string{"swapBug", "dlBug"} {
		fmt.Printf("\n== %s (16 ranks) ==\n", bug)
		reg := trace.NewRegistry()
		collect := func(plan *faults.Plan) *trace.TraceSet {
			tr := parlot.NewTracerWith(parlot.MainImage, reg)
			res, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: plan, Tracer: tr})
			if err != nil {
				log.Fatal(err)
			}
			if res.Deadlocked {
				fmt.Println("(deadlock detected; traces truncated at the stall points)")
			}
			return tr.Collect()
		}
		normal := collect(nil)
		plan, err := faults.Named(bug)
		if err != nil {
			log.Fatal(err)
		}
		faulty := collect(plan)

		cfg := core.DefaultConfig()
		cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
		rep, err := core.DiffRun(normal, faulty, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("B-score: %.3f, top suspects: %s\n",
			rep.Threads.BScore, strings.Join(rep.Threads.TopSuspects(4, 1e-9), ", "))
		d, err := rep.DiffNLR(rep.Threads, "5.0")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(d.Render(false))
	}
}
