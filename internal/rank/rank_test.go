package rank

import (
	"sort"
	"strings"
	"testing"

	"difftrace/internal/apps/ilcs"
	"difftrace/internal/apps/oddeven"
	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

func oddEvenSets(t *testing.T, plan *faults.Plan) (*trace.TraceSet, *trace.TraceSet) {
	t.Helper()
	reg := trace.NewRegistry()
	run := func(p *faults.Plan) *trace.TraceSet {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		if _, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: p, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		return tr.Collect()
	}
	return run(nil), run(plan)
}

func TestSweepOddEvenSwapBug(t *testing.T) {
	normal, faulty := oddEvenSets(t, faults.NewPlan(faults.Fault{
		Kind: faults.SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7,
	}))
	tbl, err := SweepContext(nil, normal, faulty, Request{
		Specs:   []string{"11.mpiall.0K10", "11.mpisr.0K10"},
		Linkage: cluster.Ward,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2*6 {
		t.Fatalf("rows = %d, want 12", len(tbl.Rows))
	}
	// Rows ascend by B-score.
	if !sort.SliceIsSorted(tbl.Rows, func(i, j int) bool { return tbl.Rows[i].BScore < tbl.Rows[j].BScore }) {
		t.Error("rows not sorted by B-score")
	}
	// Consensus: process 5 is ranked first most often.
	cons := tbl.Consensus(true)
	if len(cons) == 0 || cons[0].Name != "5" {
		t.Errorf("process consensus = %+v", cons)
	}
	consTh := tbl.Consensus(false)
	if len(consTh) == 0 || consTh[0].Name != "5.0" {
		t.Errorf("thread consensus = %+v", consTh)
	}
}

func TestSweepErrors(t *testing.T) {
	normal, faulty := oddEvenSets(t, nil)
	if _, err := SweepContext(nil, normal, faulty, Request{}); err == nil {
		t.Error("empty spec list accepted")
	}
	if _, err := SweepContext(nil, normal, faulty, Request{Specs: []string{"bogus"}}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestRenderLayout(t *testing.T) {
	normal, faulty := oddEvenSets(t, faults.NewPlan(faults.Fault{
		Kind: faults.SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7,
	}))
	tbl, err := SweepContext(nil, normal, faulty, Request{
		Specs:   []string{"11.mpiall.0K10"},
		Attrs:   []attr.Config{{Kind: attr.Single, Freq: attr.NoFreq}},
		Linkage: cluster.Ward,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, want := range []string{"Filter", "B-score", "Top Processes", "11.mpiall.0K10", "sing.noFreq", "ward"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableVIShape(t *testing.T) {
	// §IV-B: the OpenMP unprotected-memcpy bug in process 6 thread 4 — the
	// memory/critical-section filters must flag thread 6.4 first.
	reg := trace.NewRegistry()
	run := func(p *faults.Plan) *trace.TraceSet {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		res, err := ilcs.Run(ilcs.Config{
			Procs: 8, Workers: 4, Cities: 12, Seed: 11,
			StableRounds: 2, MaxRounds: 10, Plan: p, Tracer: tr,
		})
		if err != nil || res.Deadlocked {
			t.Fatal(err, res)
		}
		return tr.Collect()
	}
	normal := run(nil)
	faulty := run(faults.NewPlan(faults.Fault{
		Kind: faults.OmitCritical, Process: 6, Thread: 4,
	}))
	// Sweep the full attribute space (as the paper's Table VI does): the
	// consensus needs the frequency-sensitive rows; structure-only rows
	// are noisier because NLR loop identities vary between any two runs
	// of the asynchronous search.
	// The ompcrit-only spec is the high-signal row family: for it the
	// *only* possible difference between the runs is the buggy thread's
	// vanished GOMP_critical_* calls.
	tbl, err := SweepContext(nil, normal, faulty, Request{
		Specs:          []string{"11.ompcrit.0K10", "11.plt.mem.cust.0K10", "11.mem.ompcrit.cust.0K10"},
		CustomPatterns: []string{"^CPU_"},
		Linkage:        cluster.Ward,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Detection-power assertions for this asynchronous workload live in
	// the tableVI experiment (stable under its controlled configuration)
	// and in TestSweepOddEvenSwapBug (deterministic workload). Under
	// arbitrary schedulers — race detector, loaded machines — other
	// workers' champion-update structure varies too, so here we verify
	// the sweep mechanics and that the faulty thread is at least
	// surfaced somewhere in the table.
	if len(tbl.Rows) != 3*6 {
		t.Fatalf("rows = %d, want 18", len(tbl.Rows))
	}
	if !sort.SliceIsSorted(tbl.Rows, func(i, j int) bool { return tbl.Rows[i].BScore < tbl.Rows[j].BScore }) {
		t.Error("rows not sorted by B-score")
	}
	seen := false
	for _, c := range tbl.Consensus(false) {
		if c.Name == "6.4" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("thread 6.4 never surfaced\n%s", tbl.Render())
	}
}

// TestParallelSweepMatchesSequential: a sweep whose runs get four workers
// builds the same table as one whose runs get one.
func TestParallelSweepMatchesSequential(t *testing.T) {
	normal, faulty := oddEvenSets(t, faults.NewPlan(faults.Fault{
		Kind: faults.SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7,
	}))
	base := Request{
		Specs:   []string{"11.mpiall.0K10", "11.mpisr.0K10"},
		Linkage: cluster.Ward,
		Workers: 1,
	}
	seq, err := SweepContext(nil, normal, faulty, base)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Workers = 4
	got, err := SweepContext(nil, normal, faulty, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(seq.Rows) {
		t.Fatalf("rows: %d vs %d", len(got.Rows), len(seq.Rows))
	}
	for i := range seq.Rows {
		a, b := seq.Rows[i], got.Rows[i]
		if a.Spec != b.Spec || a.Attr != b.Attr || a.BScore != b.BScore {
			t.Errorf("row %d differs: %s/%s/%.3f vs %s/%s/%.3f",
				i, a.Spec, a.Attr, a.BScore, b.Spec, b.Attr, b.BScore)
		}
		if strings.Join(a.TopThreads, ",") != strings.Join(b.TopThreads, ",") {
			t.Errorf("row %d suspects differ", i)
		}
	}
}

func TestParallelSweepPropagatesErrors(t *testing.T) {
	normal, faulty := oddEvenSets(t, nil)
	_, err := SweepContext(nil, normal, faulty, Request{
		Specs:   []string{"11.cust.0K10"}, // cust without patterns: parse error
		Workers: 4,
	})
	if err == nil {
		t.Error("expected parse error")
	}
}

func TestRenderMarkdown(t *testing.T) {
	normal, faulty := oddEvenSets(t, faults.NewPlan(faults.Fault{
		Kind: faults.SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7,
	}))
	tbl, err := SweepContext(nil, normal, faulty, Request{
		Specs:   []string{"11.mpiall.0K10"},
		Attrs:   []attr.Config{{Kind: attr.Single, Freq: attr.Actual}},
		Linkage: cluster.Ward,
	})
	if err != nil {
		t.Fatal(err)
	}
	md := tbl.RenderMarkdown()
	if !strings.Contains(md, "| Filter |") || !strings.Contains(md, "| 11.mpiall.0K10 | sing.actual |") {
		t.Errorf("markdown:\n%s", md)
	}
	if strings.Count(md, "\n") != 3 { // header + separator + 1 row
		t.Errorf("rows:\n%s", md)
	}
}
