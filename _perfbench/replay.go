package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"difftrace/internal/attr"
	"difftrace/internal/bscore"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/fca"
	"difftrace/internal/filter"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// The traced replay re-drives core.DiffRun from outside the pipeline: the
// same exported calls in the same order, on one goroutine, with a span
// around each layer's part. Per-event layers get one span per object and
// round: the symbols are decoded, filtered, named and pushed to NLR as four
// separate steps. The assembled core.Report must have the pipeline's report
// digest, which is what shows the replay faithful.

// maxRounds mirrors the pipeline's cap on NLR fixpoint rounds.
const maxRounds = 4

// robj is one object of one side of a level: a filtered materialized trace
// (batch) or the compressed thread streams it replays (stream).
type robj struct {
	name string
	reg  *trace.Registry
	tr   *trace.Trace
	sts  []*parlot.StreamTrace
}

// pair is a normal/faulty input: materialized sets (batch) or compressed
// stream sets (stream).
type pair struct {
	normal, faulty   *trace.TraceSet
	snormal, sfaulty *parlot.StreamSet
}

// replayDiffRun is the traced equivalent of core.DiffRunContext (batch) or
// core.DiffRunStreamContext (stream).
func replayDiffRun(t *tracer, in pair, cfg core.Config) (*core.Report, error) {
	if cfg.Attr.Kind == attr.Context {
		return nil, fmt.Errorf("replay: caller/callee attributes are not replayed")
	}
	var levels [2][2][]robj // [threads|processes][normal|faulty]
	memos := map[*trace.Registry]*filter.Memo{}
	if in.snormal != nil {
		t.begin("filter")
		for _, reg := range []*trace.Registry{in.snormal.Registry, in.sfaulty.Registry} {
			if memos[reg] == nil {
				memos[reg] = cfg.Filter.Memo(reg)
			}
		}
		t.end()
		levels[0][0], levels[0][1] = union(streamThreads(in.snormal), streamThreads(in.sfaulty))
		levels[1][0], levels[1][1] = union(streamProcesses(in.snormal), streamProcesses(in.sfaulty))
	} else {
		t.begin("filter")
		fn := cfg.Filter.ApplySet(in.normal)
		ff := cfg.Filter.ApplySet(in.faulty)
		t.end()
		t.count("filter.events_in", float64(in.normal.TotalEvents()+in.faulty.TotalEvents()))
		t.count("filter.kept", float64(fn.TotalEvents()+ff.TotalEvents()))
		t.begin("trace.merge")
		levels[0][0], levels[0][1] = union(setThreads(fn), setThreads(ff))
		levels[1][0], levels[1][1] = union(setProcesses(fn), setProcesses(ff))
		t.end()
	}

	table := nlr.NewTable()
	elems := summarizeRounds(t, levels, cfg.Filter, memos, table)

	rep := &core.Report{Cfg: cfg, LoopTable: table}
	for lv := range levels {
		level, err := analyzeLevel(t, levels[lv], elems[lv], cfg)
		if err != nil {
			return nil, err
		}
		if lv == 0 {
			rep.Threads = level
		} else {
			rep.Processes = level
		}
	}
	return rep, nil
}

// summarizeRounds runs the NLR fixpoint: every object against a frozen
// view of the shared table through a private overlay, then the overlays
// absorbed in canonical order, until the table stops growing.
func summarizeRounds(t *tracer, levels [2][2][]robj, flt *filter.Filter, memos map[*trace.Registry]*filter.Memo, table *nlr.Table) [2][2][][]nlr.Element {
	var out [2][2][][]nlr.Element
	type item struct{ lv, side, idx int }
	var items []item
	for lv := range levels {
		for side := range levels[lv] {
			out[lv][side] = make([][]nlr.Element, len(levels[lv][side]))
			for i := range levels[lv][side] {
				items = append(items, item{lv, side, i})
			}
		}
	}
	var syms []uint32
	prev := -1
	for round := 0; round < maxRounds && table.Len() != prev; round++ {
		prev = table.Len()
		t.count("nlr.rounds", 1)
		overlays := make([]*nlr.Table, len(items))
		roundElems := make([][]nlr.Element, len(items))
		for i, it := range items {
			o := levels[it.lv][it.side][it.idx]
			var names []string
			var kinds []trace.EventKind
			if o.sts != nil {
				syms = decodeObject(t, o, syms[:0])
				syms = filterSymbols(t, flt, memos[o.reg], syms)
				names, kinds = nameSymbols(t, o.reg, syms)
			} else {
				names, kinds = nameEvents(t, o.reg, o.tr)
			}
			t.begin("nlr")
			ov := nlr.NewOverlay(table)
			s := nlr.NewSummarizer(flt.K, ov)
			for j, name := range names {
				if kinds[j] == trace.Exit {
					name = "ret:" + name
				}
				s.Push(name)
			}
			s.Finalize()
			roundElems[i] = s.Elements()
			overlays[i] = ov
			t.end()
			t.count("nlr.tokens_in", float64(len(names)))
		}
		t.begin("nlr.absorb")
		for i, it := range items {
			remap := table.Absorb(overlays[i])
			out[it.lv][it.side][it.idx] = nlr.RemapElements(roundElems[i], remap)
		}
		t.end()
	}
	t.count("nlr.table_bodies", float64(table.Len()))
	return out
}

// decodeObject replays an object's compressed streams into symbols
// (fn<<1 | kind).
func decodeObject(t *tracer, o robj, syms []uint32) []uint32 {
	t.begin("parlot.decode")
	for _, st := range o.sts {
		r := st.Reader()
		for {
			fn, kind, ok := r.Next()
			if !ok {
				break
			}
			syms = append(syms, fn<<1|uint32(kind))
		}
	}
	t.end()
	t.count("parlot.symbols", float64(len(syms)))
	return syms
}

// filterSymbols applies the pipeline's per-symbol predicate in place:
// drop-returns on the kind, then the memoized keep decision.
func filterSymbols(t *tracer, flt *filter.Filter, memo *filter.Memo, syms []uint32) []uint32 {
	t.begin("filter")
	kept := syms[:0]
	for _, s := range syms {
		if flt.DropReturns && trace.EventKind(s&1) == trace.Exit {
			continue
		}
		if !memo.Keep(s >> 1) {
			continue
		}
		kept = append(kept, s)
	}
	t.end()
	t.count("filter.events_in", float64(len(syms)))
	t.count("filter.kept", float64(len(kept)))
	return kept
}

// nameSymbols looks up each kept symbol's function name.
func nameSymbols(t *tracer, reg *trace.Registry, syms []uint32) ([]string, []trace.EventKind) {
	t.begin("trace.name")
	names := make([]string, len(syms))
	kinds := make([]trace.EventKind, len(syms))
	for i, s := range syms {
		names[i] = reg.Name(s >> 1)
		kinds[i] = trace.EventKind(s & 1)
	}
	t.end()
	t.count("trace.name_calls", float64(len(syms)))
	return names, kinds
}

// nameEvents looks up each event's function name in a materialized trace.
func nameEvents(t *tracer, reg *trace.Registry, tr *trace.Trace) ([]string, []trace.EventKind) {
	t.begin("trace.name")
	names := make([]string, len(tr.Events))
	kinds := make([]trace.EventKind, len(tr.Events))
	for i, e := range tr.Events {
		names[i] = reg.Name(e.Func)
		kinds[i] = e.Kind
	}
	t.end()
	t.count("trace.name_calls", float64(len(tr.Events)))
	return names, kinds
}

// analyzeLevel extracts attributes, interns them into one per-level
// universe, builds each side's JSM and linkage, and compares the sides.
func analyzeLevel(t *tracer, sides [2][]robj, elems [2][][]nlr.Element, cfg core.Config) (*core.Level, error) {
	var sets [2][]fca.AttrSet
	t.begin("attr")
	for side := range sides {
		sets[side] = make([]fca.AttrSet, len(sides[side]))
		for i := range sides[side] {
			sets[side][i] = attr.Extract(elems[side][i], cfg.Attr)
		}
	}
	t.end()

	t.begin("fca.intern")
	in := fca.NewInterner()
	bits := 0
	for side := range sides {
		for i := range sets[side] {
			sets[side][i] = fca.NewAttrSetIn(in, sets[side][i].Sorted()...)
			bits += sets[side][i].Len()
		}
	}
	t.end()
	t.count("attr.distinct", float64(in.Len()))
	t.count("fca.attrs", float64(bits))

	var an [2]*core.Analysis
	for side := range sides {
		nlrs := make(map[string][]nlr.Element, len(sides[side]))
		attrs := make(map[string]fca.AttrSet, len(sides[side]))
		for i, o := range sides[side] {
			nlrs[o.name] = elems[side][i]
			attrs[o.name] = sets[side][i]
		}
		t.begin("jaccard.jsm")
		jsm := jaccard.NewParallelObserved(attrs, 1, nil)
		t.end()
		t.begin("cluster")
		lk, err := cluster.Build(jsm.Distance(), cfg.Linkage)
		t.end()
		if err != nil {
			return nil, err
		}
		n := len(attrs)
		t.count("jaccard.cells", float64(n*(n-1)/2))
		t.count("cluster.objects", float64(n))
		an[side] = &core.Analysis{NLR: nlrs, Attrs: attrs, JSM: jsm, Linkage: lk}
	}

	t.begin("jaccard.diff")
	jsmd, err := jaccard.Diff(an[1].JSM, an[0].JSM)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("bscore")
	b, err := bscore.BScore(an[0].Linkage, an[1].Linkage)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("jaccard.diff")
	suspects := jsmd.Suspects()
	t.end()
	n := len(jsmd.Names)
	t.count("jaccard.cells", float64(n*(n-1)/2))
	return &core.Level{Normal: an[0], Faulty: an[1], JSMD: jsmd, BScore: b, Suspects: suspects}, nil
}

// replayReport is core.Report.WriteReport with a span around each of its
// parts: the B-score curve, each suspect's diffNLR and its rendering.
// The bytes must equal WriteReport's; daemon-mix checks them against the
// service's stored artifact.
func replayReport(t *tracer, w *bytes.Buffer, r *core.Report, topK int) error {
	t.begin("core.report")
	defer t.end()
	fmt.Fprintf(w, "DiffTrace report\n")
	fmt.Fprintf(w, "  filter:  %s\n", r.Cfg.Filter)
	fmt.Fprintf(w, "  attrs:   %s\n", r.Cfg.Attr)
	fmt.Fprintf(w, "  linkage: %s\n\n", r.Cfg.Linkage)
	levels := []struct {
		name  string
		level *core.Level
	}{{"threads", r.Threads}, {"processes", r.Processes}}
	for _, l := range levels {
		fmt.Fprintf(w, "== %s ==\n", l.name)
		fmt.Fprintf(w, "B-score: %.3f\n", l.level.BScore)
		t.begin("bscore.curve")
		curve, err := bscore.RenderCurve(l.level.Normal.Linkage, l.level.Faulty.Linkage)
		t.end()
		if err == nil {
			fmt.Fprintln(w, curve)
		}
		fmt.Fprintf(w, "suspects (similarity-row change):\n")
		shown := 0
		for _, s := range l.level.Suspects {
			if shown >= topK || s.Score <= 0 {
				break
			}
			fmt.Fprintf(w, "  %2d. %-8s %.3f\n", shown+1, s.Name, s.Score)
			shown++
		}
		if shown == 0 {
			fmt.Fprintln(w, "  (no similarity changes — executions indistinguishable under this configuration)")
		}
		for i, s := range l.level.Suspects {
			if i >= topK || s.Score <= 0 {
				break
			}
			t.begin("diffnlr.compute")
			d, err := r.DiffNLR(l.level, s.Name)
			t.end()
			if err != nil {
				return err
			}
			if d.Identical() {
				fmt.Fprintf(w, "\ndiffNLR(%s): traces identical (row changed via other objects)\n", s.Name)
				continue
			}
			fmt.Fprintln(w)
			t.begin("diffnlr.render")
			text := d.Render(false)
			t.end()
			fmt.Fprint(w, text)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// replayDivergence is the service's divergence section: the pass over
// every aligned NLR pair, then its rendering.
func replayDivergence(ctx context.Context, t *tracer, w io.Writer, r *core.Report) error {
	t.begin("diffnlr.divergence")
	defer t.end()
	div, err := r.FindDivergenceContext(ctx)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return div.Render(w)
}

func setThreads(s *trace.TraceSet) []robj {
	var out []robj
	for _, id := range s.IDs() {
		out = append(out, robj{name: id.String(), reg: s.Registry, tr: s.Traces[id]})
	}
	return out
}

func setProcesses(s *trace.TraceSet) []robj {
	var out []robj
	for _, p := range s.Processes() {
		out = append(out, robj{name: strconv.Itoa(p), reg: s.Registry, tr: s.ProcessTrace(p)})
	}
	return out
}

func streamThreads(ss *parlot.StreamSet) []robj {
	var out []robj
	for _, id := range ss.IDs() {
		out = append(out, robj{name: id.String(), reg: ss.Registry, sts: []*parlot.StreamTrace{ss.Get(id)}})
	}
	return out
}

func streamProcesses(ss *parlot.StreamSet) []robj {
	var out []robj
	for _, p := range ss.Processes() {
		var sts []*parlot.StreamTrace
		for _, id := range ss.IDs() {
			if id.Process == p {
				sts = append(sts, ss.Get(id))
			}
		}
		out = append(out, robj{name: strconv.Itoa(p), reg: ss.Registry, sts: sts})
	}
	return out
}

// union aligns two object lists by name the way the pipeline does: an
// object missing on one side gets an empty trace, appended in natural
// name order.
func union(a, b []robj) ([]robj, []robj) {
	names := map[string]bool{}
	for _, o := range a {
		names[o.name] = true
	}
	for _, o := range b {
		names[o.name] = true
	}
	fill := func(objs []robj) []robj {
		var reg *trace.Registry
		if len(objs) > 0 {
			reg = objs[0].reg
		}
		have := map[string]bool{}
		for _, o := range objs {
			have[o.name] = true
		}
		var ghosts []string
		for n := range names {
			if !have[n] {
				ghosts = append(ghosts, n)
			}
		}
		sort.Slice(ghosts, func(i, j int) bool { return jaccard.LessNatural(ghosts[i], ghosts[j]) })
		for _, n := range ghosts {
			objs = append(objs, robj{name: n, reg: reg, tr: &trace.Trace{}})
		}
		return objs
	}
	return fill(a), fill(b)
}
