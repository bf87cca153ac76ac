// The §IV case study: ILCS running a TSP 2-opt search with an injected
// bug, analyzed by a full ranking-table sweep.
//
//	go run ./examples/ilcs_tsp               # default: ompBug (§IV-B)
//	go run ./examples/ilcs_tsp -fault wrongSize
//	go run ./examples/ilcs_tsp -fault wrongOp
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"difftrace/internal/apps/ilcs"
	"difftrace/internal/cluster"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

func main() {
	faultName := flag.String("fault", "ompBug", "ompBug | wrongSize | wrongOp")
	flag.Parse()

	plan, err := faults.Named(*faultName)
	if err != nil {
		log.Fatal(err)
	}
	if plan == nil {
		log.Fatal("pick a fault; a fault-free diff is empty")
	}

	// Run ILCS-TSP twice: 8 MPI processes × 4 OpenMP workers, real 2-opt.
	reg := trace.NewRegistry()
	collect := func(p *faults.Plan) *trace.TraceSet {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		res, err := ilcs.Run(ilcs.Config{
			Procs: 8, Workers: 4, Cities: 12, Seed: 11,
			StableRounds: 2, MaxRounds: 10, Plan: p, Tracer: tr,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run %-28s champion=%.2f deadlocked=%v\n", p, res.Champion, res.Deadlocked)
		return tr.Collect()
	}
	normal := collect(nil)
	faulty := collect(plan)

	// The paper's parameter sweep: filter specs × all six attribute
	// configurations, ward linkage, sorted by B-score.
	specs := map[string][]string{
		"ompBug":    {"11.plt.mem.cust.0K10", "01.plt.mem.cust.0K10", "11.mem.ompcrit.cust.0K10", "01.mem.ompcrit.cust.0K10"},
		"wrongSize": {"11.mpi.cust.0K10", "11.mpiall.cust.0K10", "11.mpicol.cust.0K10", "01.mpicol.cust.0K10"},
		"wrongOp":   {"11.plt.cust.0K10", "01.plt.cust.0K10", "11.mpi.cust.0K10", "11.mpicol.cust.0K10"},
	}[*faultName]

	tbl, err := rank.SweepContext(nil, normal, faulty, rank.Request{
		Specs:          specs,
		CustomPatterns: []string{"^CPU_"},
		Linkage:        cluster.Ward,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nranking table (%s):\n%s\n", *faultName, tbl.Render())

	cons := tbl.Consensus(false)
	if len(cons) > 0 {
		fmt.Printf("thread consensus: %s ranked first in %d rows\n",
			cons[0].Name, cons[0].RankedFirst)
		// Drill into the consensus suspect with the best-scoring row that
		// flags it (Figure 7a-style view).
		for _, row := range tbl.Rows {
			if len(row.TopThreads) == 0 || row.TopThreads[0] != cons[0].Name {
				continue
			}
			d, err := row.Report.DiffNLR(row.Report.Threads, cons[0].Name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\ndiffNLR(%s) under %s / %s:\n", cons[0].Name, row.Spec, row.Attr)
			fmt.Print(d.Render(false))
			break
		}
	}
	_ = strings.TrimSpace("")
}
