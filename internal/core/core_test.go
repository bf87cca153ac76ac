package core

import (
	"bytes"
	"strings"
	"testing"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/faults"
	"difftrace/internal/filter"
	"difftrace/internal/parlot"

	"difftrace/internal/apps/oddeven"
	"difftrace/internal/trace"
)

// collect runs odd/even with the given plan over a shared registry so
// normal and faulty traces align.
func collect(t *testing.T, procs int, reg *trace.Registry, plan *faults.Plan) *trace.TraceSet {
	t.Helper()
	tr := parlot.NewTracerWith(parlot.MainImage, reg)
	_, err := oddeven.Run(oddeven.Config{Procs: procs, Seed: 5, Plan: plan, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Collect()
}

func swapPlan() *faults.Plan {
	return faults.NewPlan(faults.Fault{
		Kind: faults.SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7,
	})
}

func dlPlan() *faults.Plan {
	return faults.NewPlan(faults.Fault{
		Kind: faults.DeadlockStop, Process: 5, Thread: -1, AfterIteration: 7,
	})
}

func TestDiffRunIdenticalExecutions(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	same := collect(t, 8, reg, nil)
	rep, err := DiffRun(normal, same, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Threads.BScore != 1 {
		t.Errorf("identical runs B-score = %f, want 1", rep.Threads.BScore)
	}
	if got := rep.Threads.TopSuspects(5, 1e-9); len(got) != 0 {
		t.Errorf("identical runs flagged suspects %v", got)
	}
}

func TestSwapBugFlagsRank5(t *testing.T) {
	// §II-G: with 16 processes, trace 5 appears as the most affected.
	reg := trace.NewRegistry()
	normal := collect(t, 16, reg, nil)
	faulty := collect(t, 16, reg, swapPlan())
	cfg := DefaultConfig()
	cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if top := rep.Threads.Suspects[0].Name; top != "5.0" {
		t.Errorf("top thread suspect = %s, want 5.0 (all: %v)", top, rep.Threads.TopSuspects(4, 0))
	}
	if top := rep.Processes.Suspects[0].Name; top != "5" {
		t.Errorf("top process suspect = %s, want 5", top)
	}
	if rep.Threads.BScore >= 1 {
		t.Errorf("faulty B-score = %f, want < 1", rep.Threads.BScore)
	}
}

func TestFigure5DiffNLR(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 16, reg, nil)
	faulty := collect(t, 16, reg, swapPlan())
	rep, err := DiffRun(normal, faulty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rep.DiffNLR(rep.Threads, "5.0")
	if err != nil {
		t.Fatal(err)
	}
	if d.Identical() {
		t.Fatal("diffNLR(5) found no differences")
	}
	out := d.Render(false)
	// Figure 5 essentials: normal one loop token, faulty two; both reach
	// MPI_Finalize.
	if !strings.Contains(d.Verdict(), "both traces reach MPI_Finalize") {
		t.Errorf("verdict = %q", d.Verdict())
	}
	if !strings.Contains(out, "L") {
		t.Errorf("render has no loop tokens:\n%s", out)
	}
	// Unaffected rank: identical.
	d8, err := rep.DiffNLR(rep.Threads, "8.0")
	if err != nil {
		t.Fatal(err)
	}
	if !d8.Identical() {
		t.Errorf("diffNLR(8) should be identical:\n%s", d8.Render(false))
	}
}

func TestFigure6DeadlockDiffNLR(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 16, reg, nil)
	faulty := collect(t, 16, reg, dlPlan())
	rep, err := DiffRun(normal, faulty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rep.DiffNLR(rep.Threads, "5.0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.Verdict(), "never reached MPI_Finalize") {
		t.Errorf("verdict = %q", d.Verdict())
	}
}

func TestLatticeModeAgreesWithDirect(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	direct, err := DiffRun(normal, faulty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BuildLattices = true
	viaLattice, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if viaLattice.Threads.Normal.Lattice == nil {
		t.Fatal("lattice mode built no lattice")
	}
	if err := viaLattice.Threads.Normal.Lattice.Verify(); err != nil {
		t.Fatal(err)
	}
	a, b := direct.Threads.JSMD, viaLattice.Threads.JSMD
	for i := range a.M {
		for j := range a.M[i] {
			if a.M[i][j] != b.M[i][j] {
				t.Fatalf("JSM_D differs between lattice and direct mode at (%d,%d)", i, j)
			}
		}
	}
}

func TestLinkageMethodsAllRun(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	for _, m := range cluster.AllMethods() {
		cfg := DefaultConfig()
		cfg.Linkage = m
		if _, err := DiffRun(normal, faulty, cfg); err != nil {
			t.Errorf("linkage %v: %v", m, err)
		}
	}
}

func TestAttrConfigsAllRun(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	for _, ac := range attr.AllConfigs() {
		cfg := DefaultConfig()
		cfg.Attr = ac
		rep, err := DiffRun(normal, faulty, cfg)
		if err != nil {
			t.Errorf("attrs %v: %v", ac, err)
			continue
		}
		if len(rep.Threads.Suspects) != 8 {
			t.Errorf("attrs %v: %d suspects", ac, len(rep.Threads.Suspects))
		}
	}
}

func TestNilFilterDefaultsToEverything(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 4, reg, nil)
	faulty := collect(t, 4, reg, nil)
	rep, err := DiffRun(normal, faulty, Config{Attr: attr.Config{Kind: attr.Single, Freq: attr.NoFreq}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cfg.Filter == nil {
		t.Error("filter not defaulted")
	}
}

func TestDiffNLRUnknownObject(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 4, reg, nil)
	rep, err := DiffRun(normal, normal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.DiffNLR(rep.Threads, "99.9"); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestMissingThreadBecomesEmptyObject(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 4, reg, nil)
	faulty := collect(t, 4, reg, nil)
	// Simulate a thread that only exists in the normal run.
	extra := normal.Get(trace.TID(3, 7))
	extra.Append(reg.ID("ghost"), trace.Enter)
	rep, err := DiffRun(normal, faulty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Threads.Normal.JSM.Size() != rep.Threads.Faulty.JSM.Size() {
		t.Error("levels not aligned")
	}
	if _, err := rep.DiffNLR(rep.Threads, "3.7"); err != nil {
		t.Errorf("missing-side object not diffable: %v", err)
	}
}

func TestWriteReportSections(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 16, reg, nil)
	faulty := collect(t, 16, reg, swapPlan())
	cfg := DefaultConfig()
	cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
	cfg.BuildLattices = true
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = rep.WriteReport(&buf, RenderOptions{
		TopK: 2, Heatmaps: true, Dendrograms: true, Lattices: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"DiffTrace report", "filter:", "== threads ==", "== processes ==",
		"B-score:", "B_k  k=", "5.0", "JSM_D heatmap", "normal dendrogram",
		"faulty concept lattice", "diffNLR(5.0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportSummary(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 16, reg, nil)
	faulty := collect(t, 16, reg, swapPlan())
	cfg := DefaultConfig()
	cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	if !strings.Contains(s, "5.0") || !strings.Contains(s, "diffNLR(5.0)") {
		t.Errorf("summary = %q", s)
	}
	same, err := DiffRun(normal, normal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(same.Summary(), "no behavioural differences") {
		t.Errorf("self summary = %q", same.Summary())
	}
	var buf bytes.Buffer
	if err := same.WriteReport(&buf, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "indistinguishable") {
		t.Errorf("self report:\n%s", buf.String())
	}
}

func TestContextAttributesRequireReturns(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	cfg := DefaultConfig() // DropReturns = true
	cfg.Attr = attr.Config{Kind: attr.Context, Freq: attr.NoFreq}
	if _, err := DiffRun(normal, faulty, cfg); err == nil {
		t.Fatal("ctx attrs with a return-dropping filter accepted")
	}
	sum, err := Summarize(nil, normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sum.Analyze(nil, cfg.Attr, cfg.Linkage); err == nil {
		t.Fatal("Analyze accepted ctx attrs over a return-dropping filter")
	}
	// With returns kept the pipeline runs — and demonstrates the family's
	// blind spot: caller→callee pairs are order-insensitive, so swapping
	// Send/Recv changes no context attribute at all. The swapBug is
	// invisible here (top suspect score 0), which is precisely why the
	// paper's sequence-sensitive NLR attributes matter.
	flt, err := filter.ParseSpec("01.0K10")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Filter = flt
	cfg.Attr = attr.Config{Kind: attr.Context, Freq: attr.Actual}
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if top := rep.Threads.Suspects[0]; top.Score > 1e-9 {
		t.Errorf("ctx attrs should be blind to the order swap; top = %s (%f)", top.Name, top.Score)
	}
	// A truncating bug IS visible to context frequencies.
	faultyDl := collect(t, 8, reg, faults.NewPlan(faults.Fault{
		Kind: faults.DeadlockStop, Process: 3, Thread: -1, AfterIteration: 4,
	}))
	repDl, err := DiffRun(normal, faultyDl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repDl.Threads.Suspects[0].Score <= 0 {
		t.Error("ctx attrs should see the truncation")
	}
}
