package experiments

import (
	"fmt"
	"io"
	"strings"

	"difftrace/internal/attr"
	"difftrace/internal/core"
	"difftrace/internal/fca"
	"difftrace/internal/filter"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/trace"
)

// oddEvenFiltered returns the MPI-filtered 4-rank odd/even traces used by
// Table II/III/IV and Figures 3/4.
func oddEvenFiltered() (*trace.TraceSet, error) {
	reg := trace.NewRegistry()
	set, _, err := runOddEven(reg, 4, nil)
	if err != nil {
		return nil, err
	}
	return filter.New(filter.MPIAll).ApplySet(set), nil
}

// TableII prints the pre-processed traces of the 4-rank odd/even run side
// by side, as in Table II (after the MPI filter).
func TableII(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	set, err := oddEvenFiltered()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table II — pre-processed odd/even traces (MPI filter, 4 ranks)")
	fmt.Fprint(w, set.Dump(0))

	for p := 0; p < 4; p++ {
		calls := set.Traces[trace.TID(p, 0)].Names(set.Registry)
		if calls[0] != "MPI_Init" || calls[len(calls)-1] != "MPI_Finalize" {
			o.fail("T%d does not span MPI_Init..MPI_Finalize", p)
		}
	}
	interior := set.Traces[trace.TID(1, 0)].Len()
	edge := set.Traces[trace.TID(0, 0)].Len()
	o.metric("interior_trace_events", "%d", interior)
	o.metric("edge_trace_events", "%d", edge)
	if edge >= interior {
		o.fail("edge ranks should trace fewer exchanges than interior ranks")
	}
	return o, nil
}

// TableIII prints the NLR summarization of the same traces (Table III).
func TableIII(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	set, err := oddEvenFiltered()
	if err != nil {
		return nil, err
	}
	tbl := nlr.NewTable()
	sums := nlr.SummarizeSet(set, 10, tbl)
	fmt.Fprintln(w, "Table III — NLR of the odd/even traces (K=10)")
	for _, id := range set.IDs() {
		fmt.Fprintf(w, "T%d: %s\n", id.Process, strings.Join(nlr.Tokens(sums[id]), "  "))
	}
	all := make([]int, tbl.Len())
	for i := range all {
		all[i] = i
	}
	fmt.Fprint(w, tbl.Legend(all))

	if tbl.Len() != 2 {
		o.fail("expected exactly 2 loop bodies, got %d", tbl.Len())
	}
	o.metric("loop_bodies", "%d", tbl.Len())
	for _, id := range set.IDs() {
		toks := nlr.Tokens(sums[id])
		if len(toks) != 5 {
			o.fail("T%d NLR has %d tokens, want 5", id.Process, len(toks))
		}
		o.metric(fmt.Sprintf("T%d", id.Process), "%s", strings.Join(toks, " "))
	}
	return o, nil
}

// oddEvenAttrs builds the Table IV attribute sets (single entries, noFreq).
func oddEvenAttrs() (map[string]fca.AttrSet, error) {
	set, err := oddEvenFiltered()
	if err != nil {
		return nil, err
	}
	tbl := nlr.NewTable()
	sums := nlr.SummarizeSet(set, 10, tbl)
	attrs := make(map[string]fca.AttrSet)
	cfg := attr.Config{Kind: attr.Single, Freq: attr.NoFreq}
	in := attr.NewInterner() // shared IDs → popcount fast path downstream
	for _, id := range set.IDs() {
		attrs[fmt.Sprintf("T%d", id.Process)] = attr.ExtractIn(in, sums[id], cfg)
	}
	return attrs, nil
}

// TableIV prints the formal context (Table IV).
func TableIV(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	attrs, err := oddEvenAttrs()
	if err != nil {
		return nil, err
	}
	ctx := fca.NewContext()
	for _, name := range []string{"T0", "T1", "T2", "T3"} {
		ctx.AddObject(name, attrs[name])
	}
	fmt.Fprintln(w, "Table IV — formal context of the odd/even traces")
	fmt.Fprint(w, ctx.CrossTable())

	o.metric("objects", "%d", len(ctx.Objects()))
	o.metric("attributes", "%d", ctx.Attributes().Len())
	if ctx.Attributes().Len() != 6 {
		o.fail("|M| = %d, want 6 (4 common calls + 2 loops)", ctx.Attributes().Len())
	}
	// Parity structure: T0/T2 share an intent, T1/T3 the other.
	if !ctx.Intent("T0").Equal(ctx.Intent("T2")) || !ctx.Intent("T1").Equal(ctx.Intent("T3")) {
		o.fail("parity classes broken")
	}
	if ctx.Intent("T0").Equal(ctx.Intent("T1")) {
		o.fail("even and odd traces should differ")
	}
	return o, nil
}

// Figure3 builds and renders the concept lattice (Figure 3).
func Figure3(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	attrs, err := oddEvenAttrs()
	if err != nil {
		return nil, err
	}
	l := fca.NewLattice()
	for _, name := range []string{"T0", "T1", "T2", "T3"} {
		l.AddObject(name, attrs[name])
	}
	fmt.Fprintln(w, "Figure 3 — concept lattice of the odd/even context")
	fmt.Fprint(w, l.Render())

	if err := l.Verify(); err != nil {
		o.fail("lattice invariant: %v", err)
	}
	o.metric("concepts", "%d", l.Size())
	o.metric("edges", "%d", len(l.Edges()))
	if l.Size() != 4 {
		o.fail("lattice has %d concepts, want 4 (top, two parities, bottom)", l.Size())
	}
	if top := l.Top(); len(top.Extent) != 4 || top.Intent.Len() != 4 {
		o.fail("top concept wrong: %s", top)
	}
	return o, nil
}

// Figure4 prints the pairwise JSM heatmap (Figure 4).
func Figure4(w io.Writer) (*Outcome, error) {
	o := newOutcome()
	attrs, err := oddEvenAttrs()
	if err != nil {
		return nil, err
	}
	j := jaccard.New(attrs)
	fmt.Fprintln(w, "Figure 4 — pairwise Jaccard similarity matrix")
	fmt.Fprint(w, j.String())
	fmt.Fprintln(w, "heatmap:")
	fmt.Fprint(w, j.Heatmap())

	same, _ := j.At("T0", "T2")
	cross, _ := j.At("T0", "T1")
	o.metric("same_parity_similarity", "%.3f", same)
	o.metric("cross_parity_similarity", "%.3f", cross)
	if same != 1 {
		o.fail("same-parity similarity = %f, want 1", same)
	}
	if cross >= same || cross <= 0 {
		o.fail("cross-parity similarity = %f", cross)
	}
	return o, nil
}

// swapOrDlDiff runs the §II-G experiment with the given fault and returns
// the report plus the diffNLR(5) view.
func swapOrDlDiff(plan interface{ String() string }, w io.Writer, title string) (*Outcome, *core.Report, error) {
	o := newOutcome()
	reg := trace.NewRegistry()
	normal, _, err := runOddEven(reg, 16, nil)
	if err != nil {
		return nil, nil, err
	}
	var faulty *trace.TraceSet
	switch plan {
	case swapBugPlan:
		faulty, _, err = runOddEven(reg, 16, swapBugPlan)
	case dlBugPlan:
		faulty, _, err = runOddEven(reg, 16, dlBugPlan)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown plan")
	}
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
	rep, err := core.DiffRun(normal, faulty, cfg)
	if err != nil {
		return nil, nil, err
	}
	top := rep.Threads.Suspects[0].Name
	o.metric("top_suspect", "%s", top)
	o.metric("bscore", "%.3f", rep.Threads.BScore)
	d, err := rep.DiffNLR(rep.Threads, "5.0")
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w, title)
	fmt.Fprint(w, d.Render(false))
	o.metric("verdict", "%s", d.Verdict())
	return o, rep, nil
}

// Figure5 reproduces diffNLR(5) under swapBug.
func Figure5(w io.Writer) (*Outcome, error) {
	o, rep, err := swapOrDlDiff(swapBugPlan, w, "Figure 5 — diffNLR(5) under swapBug (16 ranks)")
	if err != nil {
		return nil, err
	}
	// §II-G: trace 5's similarity row changes the most.
	if top := rep.Threads.Suspects[0].Name; top != "5.0" {
		o.fail("top suspect = %s, want 5.0", top)
	}
	d, err := rep.DiffNLR(rep.Threads, "5.0")
	if err != nil {
		return nil, err
	}
	// Shape: both runs reach MPI_Finalize; the faulty run has two loop
	// tokens where the normal run has one.
	if !strings.Contains(d.Verdict(), "both traces reach MPI_Finalize") {
		o.fail("swapBug verdict = %q", d.Verdict())
	}
	nLoops := countLoopTokens(d.Normal)
	fLoops := countLoopTokens(d.Faulty)
	o.metric("normal_loop_tokens", "%d", nLoops)
	o.metric("faulty_loop_tokens", "%d", fLoops)
	if nLoops != 1 || fLoops != 2 {
		o.fail("loop token counts %d/%d, want 1/2", nLoops, fLoops)
	}
	return o, nil
}

// Figure6 reproduces diffNLR(5) under dlBug.
func Figure6(w io.Writer) (*Outcome, error) {
	o, rep, err := swapOrDlDiff(dlBugPlan, w, "Figure 6 — diffNLR(5) under dlBug (16 ranks)")
	if err != nil {
		return nil, err
	}
	// The abort truncates *every* trace (each rank stalls at a different
	// phase of the cascade), so unlike swapBug the JSM ranking need not
	// single out trace 5 — the paper's Figure 6 claim is about what
	// diffNLR(5) shows: seven loop iterations, then a call that never
	// returned, and no MPI_Finalize.
	found := false
	for _, s := range rep.Threads.Suspects {
		if s.Name == "5.0" && s.Score > 0 {
			found = true
			break
		}
	}
	if !found {
		o.fail("trace 5.0 not among the changed traces")
	}
	d, err := rep.DiffNLR(rep.Threads, "5.0")
	if err != nil {
		return nil, err
	}
	if !strings.Contains(d.Verdict(), "never reached MPI_Finalize") {
		o.fail("dlBug verdict = %q", d.Verdict())
	}
	if !strings.Contains(strings.Join(d.Faulty, " "), "^7") {
		o.fail("faulty trace should stop after seven iterations: %v", d.Faulty)
	}
	return o, nil
}

func countLoopTokens(tokens []string) int {
	n := 0
	for _, t := range tokens {
		if strings.HasPrefix(t, "L") && strings.Contains(t, "^") {
			n++
		}
	}
	return n
}
