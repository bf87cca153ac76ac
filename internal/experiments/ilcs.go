package experiments

import (
	"fmt"
	"io"
	"strings"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/diffnlr"
	"difftrace/internal/faults"
	"difftrace/internal/nlr"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

// ilcsSpecs are the filter specs the §IV ranking tables sweep. The "cust"
// category captures the ILCS-TSP user code (CPU_Init/CPU_Exec/CPU_Output),
// exactly as the paper's custom filter does.
var (
	ilcsCustom  = []string{"^CPU_"}
	ompBugSpecs = []string{"11.plt.mem.cust.0K10", "01.plt.mem.cust.0K10", "11.mem.ompcrit.cust.0K10", "01.mem.ompcrit.cust.0K10"}
	mpiBugSpecs = []string{"11.mpi.cust.0K10", "11.mpiall.cust.0K10", "11.mpicol.cust.0K10", "01.mpicol.cust.0K10"}
	// Table VIII sweeps the paper's plt/mpi rows plus the memory/critical
	// family: the robust trace-level footprint of the silent wrong-op bug
	// is the champion *owner* changing, i.e. which master executes the
	// critical-section memcpy each round — visible to mem/ompcrit filters
	// and invisible to MPI-only ones (call counts there are unchanged).
	// §IV-D itself notes "more accurate results can be obtained by
	// refining the parameters".
	wrongOpSpecs = []string{
		"11.plt.cust.0K10", "01.plt.cust.0K10",
		"11.mpi.cust.0K10", "11.mpiall.cust.0K10",
		"11.mpicol.cust.0K10", "01.mpicol.cust.0K10",
		"11.mem.ompcrit.cust.0K10", "01.mem.ompcrit.cust.0K10",
	}
)

// ilcsSweep runs one §IV ranking table.
func ilcsSweep(w io.Writer, title string, plan *faults.Plan, specs []string) (*Outcome, *rank.Table, error) {
	o := newOutcome()
	reg := trace.NewRegistry()
	normal, _, err := runILCS(reg, nil)
	if err != nil {
		return nil, nil, err
	}
	faulty, fres, err := runILCS(reg, plan)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := rank.SweepContext(nil, normal, faulty, rank.Request{
		Specs:          specs,
		CustomPatterns: ilcsCustom,
		Linkage:        cluster.Ward,
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w, title)
	fmt.Fprint(w, tbl.Render())
	o.metric("deadlocked", "%v", fres.Deadlocked)
	o.metric("rows", "%d", len(tbl.Rows))
	return o, tbl, nil
}

// TableVI reproduces the §IV-B ranking table: the unprotected shared-memory
// access by thread 4 of process 6 must surface as the top thread suspect.
func TableVI(w io.Writer) (*Outcome, error) {
	o, tbl, err := ilcsSweep(w,
		"Table VI — ranking table, OpenMP bug: unprotected memcpy in thread 6.4",
		ompBugPlan, ompBugSpecs)
	if err != nil {
		return nil, err
	}
	cons := tbl.Consensus(false)
	if len(cons) == 0 {
		o.fail("no suspects at all")
		return o, nil
	}
	o.metric("top_thread_consensus", "%s (first in %d/%d rows)",
		cons[0].Name, cons[0].RankedFirst, len(tbl.Rows))
	if cons[0].Name != "6.4" {
		o.fail("consensus top thread = %s, want 6.4", cons[0].Name)
	}
	return o, nil
}

// TableVII reproduces §IV-C: the wrong collective size in rank 2 deadlocks
// the job early, so *most* processes look suspicious (the paper notes the
// table itself is inconclusive — the value is in diffNLR, Figure 7b).
func TableVII(w io.Writer) (*Outcome, error) {
	o, tbl, err := ilcsSweep(w,
		"Table VII — ranking table, MPI bug: wrong collective size in rank 2",
		wrongSizePlan, mpiBugSpecs)
	if err != nil {
		return nil, err
	}
	if o.Metrics["deadlocked"] != "true" {
		o.fail("wrong-size run did not deadlock")
	}
	// Shape check: the suspect lists are broad (almost everything changed).
	broad := 0
	for _, r := range tbl.Rows {
		if len(r.TopProcesses) >= 5 {
			broad++
		}
	}
	o.metric("rows_flagging_5plus_processes", "%d/%d", broad, len(tbl.Rows))
	if broad == 0 {
		o.fail("no row flags most processes; the early deadlock should affect nearly all")
	}
	return o, nil
}

// TableVIII reproduces §IV-D: the silent wrong-operation bug. The paper
// finds the first rows inconclusive but the MPI filters agreeing on one
// process; we check that the sweep completes without deadlock and that the
// informative rows agree on a single process.
func TableVIII(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	reg := trace.NewRegistry()
	normal, nres, err := runILCSHard(reg, nil)
	if err != nil {
		return nil, err
	}
	faulty, fres, err := runILCSHard(reg, wrongOpPlan)
	if err != nil {
		return nil, err
	}
	tbl, err := rank.SweepContext(nil, normal, faulty, rank.Request{
		Specs:          wrongOpSpecs,
		CustomPatterns: ilcsCustom,
		Linkage:        cluster.Ward,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table VIII — ranking table, MPI bug: wrong collective operation in rank 0")
	fmt.Fprint(w, tbl.Render())
	o.metric("deadlocked", "%v", fres.Deadlocked)
	o.metric("rows", "%d", len(tbl.Rows))
	o.metric("rounds_normal_vs_faulty", "%d vs %d", nres.Rounds[0], fres.Rounds[0])
	o.metric("reported_champion", "%.2f (normal) vs %.2f (faulty); best found %.2f",
		nres.Champion, fres.Champion, fres.BestFound)
	if fres.Champion < nres.Champion-1e-9 {
		o.fail("faulty run reported a better champion than the normal run")
	}
	if o.Metrics["deadlocked"] != "false" {
		o.fail("wrong-op run should terminate")
	}
	// This bug is *silent*: structure-only (noFreq) attributes see nothing
	// (their rows score B=1 with no suspects), while frequency-sensitive
	// attributes expose the changed champion-round/Bcast counts — the
	// paper's point that the knobs must match the bug class. At process
	// granularity the exact-frequency attributes make every merged trace
	// unique in both runs, so the signal is read from the thread level:
	// the top thread suspects of the informative rows must concentrate on
	// one process.
	informative := 0
	counts := map[string]int{}
	for _, r := range tbl.Rows {
		if len(r.TopThreads) == 0 {
			continue
		}
		informative++
		id, err := trace.ParseThreadID(r.TopThreads[0])
		if err == nil {
			counts[fmt.Sprintf("%d", id.Process)]++
		}
	}
	if informative == 0 {
		o.fail("no parameter combination exposed the silent bug")
		return o, nil
	}
	best, bestN := "", 0
	for name, n := range counts {
		if n > bestN {
			best, bestN = name, n
		}
	}
	o.metric("informative_rows", "%d/%d", informative, len(tbl.Rows))
	o.metric("top_thread_process", "%s (top in %d/%d informative rows)", best, bestN, informative)
	if bestN*2 < informative {
		o.fail("informative rows do not agree on a process: %v", counts)
	}
	return o, nil
}

// Figure7 renders the three §IV diffNLR outputs: (a) thread 6.4 under the
// OpenMP bug, (b) process 4 under the wrong-size deadlock, (c) process 5
// under the wrong-operation bug.
func Figure7(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	reg := trace.NewRegistry()
	normal, _, err := runILCS(reg, nil)
	if err != nil {
		return nil, err
	}

	// (a) OpenMP bug, diffNLR(6.4) with the mem+ompcrit+cust filter.
	faultyA, _, err := runILCS(reg, ompBugPlan)
	if err != nil {
		return nil, err
	}
	cfgA := core.DefaultConfig()
	cfgA.Filter, err = specFilter("11.mem.ompcrit.cust.0K10", ilcsCustom...)
	if err != nil {
		return nil, err
	}
	cfgA.Attr = attr.Config{Kind: attr.Single, Freq: attr.NoFreq}
	repA, err := core.DiffRun(normal, faultyA, cfgA)
	if err != nil {
		return nil, err
	}
	dA, err := repA.DiffNLR(repA.Threads, "6.4")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 7a — diffNLR(6.4), unprotected memcpy")
	fmt.Fprint(w, dA.Render(false))
	if dA.Identical() {
		o.fail("diffNLR(6.4) shows no difference")
	}
	// The normal side contains critical-section calls; the faulty side's
	// 6.4 never shows them.
	normalHasCrit := containsToken(repA.Threads.Normal.NLR["6.4"], "GOMP_critical_start")
	faultyHasCrit := containsToken(repA.Threads.Faulty.NLR["6.4"], "GOMP_critical_start")
	o.metric("fig7a_normal_has_critical", "%v", normalHasCrit)
	o.metric("fig7a_faulty_has_critical", "%v", faultyHasCrit)
	if !normalHasCrit || faultyHasCrit {
		o.fail("fig7a: critical-section calls should vanish from the faulty trace only")
	}

	// (b) wrong-size deadlock, diffNLR(4) with the MPI filter.
	faultyB, _, err := runILCS(reg, wrongSizePlan)
	if err != nil {
		return nil, err
	}
	cfgB := core.DefaultConfig()
	cfgB.Filter, err = specFilter("11.mpi.cust.0K10", ilcsCustom...)
	if err != nil {
		return nil, err
	}
	repB, err := core.DiffRun(normal, faultyB, cfgB)
	if err != nil {
		return nil, err
	}
	dB, err := repB.DiffNLR(repB.Threads, "4.0")
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Figure 7b — diffNLR(4), wrong collective size")
	fmt.Fprint(w, dB.Render(false))
	if len(dB.Faulty) == 0 {
		o.fail("fig7b: faulty process 4 trace empty")
	} else {
		last := dB.Faulty[len(dB.Faulty)-1]
		o.metric("fig7b_last_faulty_call", "%s", last)
		if !strings.Contains(last, "MPI_Allreduce") {
			o.fail("fig7b: faulty trace should end inside MPI_Allreduce, got %s", last)
		}
	}
	if containsToken(repB.Threads.Faulty.NLR["4.0"], "MPI_Finalize") {
		o.fail("fig7b: deadlocked process reached MPI_Finalize")
	}

	// (c) wrong op, on the hard instance (its own normal run): the bug is
	// silent, so the interesting view is the most-changed trace under
	// frequency-sensitive attributes — the paper's reading of why process
	// 5 was singled out (changed champion-production frequencies).
	regC := trace.NewRegistry()
	normalC, _, err := runILCSHard(regC, nil)
	if err != nil {
		return nil, err
	}
	faultyC, _, err := runILCSHard(regC, wrongOpPlan)
	if err != nil {
		return nil, err
	}
	fC, err := specFilter("11.mem.ompcrit.cust.0K10", ilcsCustom...)
	if err != nil {
		return nil, err
	}
	repC, err := core.DiffRun(normalC, faultyC, core.Config{
		Filter:  fC,
		Attr:    attr.Config{Kind: attr.Single, Freq: attr.Actual},
		Linkage: cluster.Ward,
	})
	if err != nil {
		return nil, err
	}
	// A suspect's similarity *row* can change because other traces moved,
	// so walk the ranking for the first trace whose own diffNLR changed —
	// the paper's workflow of inspecting suspects until one explains the
	// symptom.
	var dC *diffnlr.DiffNLR
	topC := ""
	for _, s := range repC.Threads.Suspects {
		if s.Score <= 0 {
			break
		}
		d, err := repC.DiffNLR(repC.Threads, s.Name)
		if err != nil {
			return nil, err
		}
		if !d.Identical() {
			dC, topC = d, s.Name
			break
		}
	}
	if dC == nil {
		o.fail("fig7c: no suspect's diffNLR shows any change")
		return o, nil
	}
	fmt.Fprintf(w, "Figure 7c — diffNLR(%s), wrong collective operation\n", topC)
	fmt.Fprint(w, dC.Render(false))
	o.metric("fig7c_suspect", "%s", topC)
	o.metric("fig7c_distance", "%d", dC.Distance())
	return o, nil
}

// containsToken reports whether a summarized sequence calls name (or a
// call starting with it) at any depth: a call the NLR folded into
// L<id>^<n> still occurs in that trace.
func containsToken(elems []nlr.Element, name string) bool {
	for _, e := range elems {
		if e.Loop != nil {
			if containsToken(e.Loop.Body, name) {
				return true
			}
		} else if strings.HasPrefix(e.Sym, name) {
			return true
		}
	}
	return false
}
