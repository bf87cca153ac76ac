// Package core is DiffTrace's pipeline (Figure 1): it wires the substrates
// together into the paper's analysis loop —
//
//	ParLOT traces → filter → NLR → FCA attributes → concept lattice / JSM
//	  → JSM_D → hierarchical clustering → B-score → suspect ranking
//	  → diffNLR of the suspicious traces.
//
// One DiffRun compares a normal execution's TraceSet against a faulty one
// under a single parameter combination (filter spec, attribute config,
// linkage method); the rank package sweeps combinations to build the
// paper's ranking tables.
//
// The pipeline is internally parallel (Config.Workers) yet deterministic:
// per-object NLR runs on overlay loop tables that are merged at a barrier
// in canonical object order, the Jaccard matrix is computed in parallel row
// blocks of identical per-cell arithmetic, and the two granularity levels
// and two execution sides fan out with a divided worker budget — so the
// report is byte-identical for every worker count. See DESIGN.md §7.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"difftrace/internal/attr"
	"difftrace/internal/bscore"
	"difftrace/internal/cluster"
	"difftrace/internal/diffnlr"
	"difftrace/internal/fca"
	"difftrace/internal/filter"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/obs"
	"difftrace/internal/parlot"
	"difftrace/internal/pool"
	"difftrace/internal/resilience"
	"difftrace/internal/trace"
)

// Config is one parameter combination of the DiffTrace loop (the dashed box
// of Figure 1): the four user knobs of §II-F.
type Config struct {
	Filter  *filter.Filter // knob 4: front-end filter (carries the NLR K, knob 3)
	Attr    attr.Config    // knob 2: FCA attributes (Table V)
	Linkage cluster.Method // knob 1: dendrogram linkage method
	// BuildLattices materializes the concept lattices (needed for lattice
	// inspection/rendering; the JSM itself is derivable either way).
	BuildLattices bool
	// Resilient isolates per-stage failures instead of propagating them:
	// a panic or error confined to one object (e.g. an NLR blow-up on a
	// pathological trace) skips that object on both sides with a recorded
	// StageError, and a level-wide failure degrades to an empty Level —
	// the remaining traces still produce a JSM and ranking. Off by
	// default: errors and panics propagate exactly as before.
	Resilient bool
	// Workers bounds the intra-run parallelism: per-object NLR and
	// attribute extraction, Jaccard row blocks, and the level/side fan-out
	// all share this budget. 0 means runtime.GOMAXPROCS(0); 1 runs the
	// whole pipeline inline. Output is identical for every value.
	Workers int
	// Streaming marks a run consuming compressed parlot.StreamSets via
	// DiffRunStream: events are decoded and filtered on the fly each
	// summarization round, so peak memory is bounded by the compressed
	// trace plus the summarized forms, never the expansion. Set by
	// DiffRunStream itself; DiffRunContext rejects it (a materialized set
	// has nothing to stream). The report is byte-identical to the batch
	// path's — the differential suite and the two Fuzz*Stream* targets pin
	// that equivalence.
	Streaming bool
	// Obs, when non-nil, collects the run's observability picture: stage
	// spans, NLR interning and per-level counts, pool utilization, and
	// degraded-stage records (see internal/obs). Instrumentation never
	// changes the Report, and everything except wall times and worker
	// counts in the resulting manifest is schedule-independent. Nil (the
	// default) is a zero-cost fast path.
	Obs *obs.Run
}

// workers resolves the Workers knob (0 → GOMAXPROCS).
func (c Config) workers() int { return pool.Workers(c.Workers) }

// DefaultConfig mirrors the paper's experiment settings: drop returns and
// PLT, keep MPI calls, K=10, single/noFreq attributes, ward linkage.
func DefaultConfig() Config {
	return Config{
		Filter:  filter.New(filter.MPIAll),
		Attr:    attr.Config{Kind: attr.Single, Freq: attr.NoFreq},
		Linkage: cluster.Ward,
	}
}

// Analysis is one execution analyzed at one granularity.
type Analysis struct {
	NLR     map[string][]nlr.Element // object name -> summarized sequence
	Attrs   map[string]fca.AttrSet
	JSM     *jaccard.JSM
	Lattice *fca.Lattice // nil unless Config.BuildLattices
	Linkage *cluster.Linkage
}

// Level is the complete normal-vs-faulty comparison at one granularity
// (threads or processes).
type Level struct {
	Normal, Faulty *Analysis
	JSMD           *jaccard.JSM
	BScore         float64
	Suspects       []jaccard.Suspect
}

// TopSuspects returns up to k object names whose similarity rows changed by
// more than eps.
func (l *Level) TopSuspects(k int, eps float64) []string {
	var out []string
	for _, s := range l.Suspects {
		if len(out) >= k || s.Score <= eps {
			break
		}
		out = append(out, s.Name)
	}
	return out
}

// Report is the output of one DiffRun.
type Report struct {
	Cfg       Config
	LoopTable *nlr.Table
	Threads   *Level // objects are "p.t" thread traces
	Processes *Level // objects are "p" merged process traces
	// Degraded lists the isolated failures a Resilient run recovered
	// from: objects skipped and levels degraded, each with its stage and
	// cause. Empty for a fully healthy run (and always empty when
	// Config.Resilient is off, since failures then abort the run).
	Degraded []*resilience.StageError
}

// testStageHook, when non-nil, is invoked at the start of every stage
// (level entry and per-object summarization). Tests install a panicking
// hook to exercise the isolation paths; nil in production.
var testStageHook func(stage, object string)

func fireStage(stage, object string) {
	if testStageHook != nil {
		testStageHook(stage, object)
	}
}

// maxRounds caps the NLR fixpoint iteration (see summarizeAll). Real
// workloads converge in two rounds — the same cost as the historical
// seed+extract double pass; the cap only guards against pathological
// parse oscillation.
const maxRounds = 4

// sideRun is one execution side of one level during the run.
type sideRun struct {
	name string // "normal" | "faulty"
	objs []object
	// Per-object state, indexed like objs. elems holds the final-round NLR
	// sequences; failed objects carry their StageError in nlrErrs/attrErrs.
	elems    [][]nlr.Element
	attrs    []fca.AttrSet
	nlrErrs  []*resilience.StageError
	attrErrs []*resilience.StageError
}

func newSideRun(name string, objs []object) *sideRun {
	return &sideRun{
		name:     name,
		objs:     objs,
		elems:    make([][]nlr.Element, len(objs)),
		attrs:    make([]fca.AttrSet, len(objs)),
		nlrErrs:  make([]*resilience.StageError, len(objs)),
		attrErrs: make([]*resilience.StageError, len(objs)),
	}
}

// levelRun is the per-level scratch state of one DiffRun.
type levelRun struct {
	stage string
	key   string      // obs span segment: "threads" | "processes"
	sides [2]*sideRun // 0 = normal, 1 = faulty
	// dead marks a level whose entry stage failed (Resilient runs): its
	// objects are excluded from summarization and it degrades to
	// emptyLevel.
	dead  bool
	err   *resilience.StageError // level-wide failure
	level *Level
}

// DiffRun executes the full pipeline for one parameter combination.
func DiffRun(normal, faulty *trace.TraceSet, cfg Config) (*Report, error) {
	return DiffRunContext(nil, normal, faulty, cfg)
}

// DiffRunContext is DiffRun with cooperative cancellation: ctx is observed
// at every stage boundary and between worker-pool claims (pool.DoContext),
// so a run can be cut short by a caller-supplied deadline or cancellation.
// A cancelled run returns the wrapped ctx error — cancellation always
// aborts, even under Config.Resilient, because a partial report must never
// be mistaken for a degraded-but-complete one. A nil ctx is never
// cancelled, making DiffRunContext(nil, ...) exactly DiffRun.
func DiffRunContext(ctx context.Context, normal, faulty *trace.TraceSet, cfg Config) (*Report, error) {
	if cfg.Streaming {
		return nil, fmt.Errorf("core: Config.Streaming set on a materialized run; use DiffRunStream with parlot StreamSets")
	}
	if cfg.Filter == nil {
		cfg.Filter = filter.Everything()
	}
	if cfg.Attr.Kind == attr.Context && cfg.Filter.DropReturns {
		return nil, fmt.Errorf("core: caller/callee (ctx) attributes need return events; use a filter spec starting with 0")
	}
	run := cfg.Obs
	spRun := run.StartSpan("diffrun")
	defer spRun.End()
	table := nlr.NewTable()
	table.Observe(run)
	rep := &Report{Cfg: cfg, LoopTable: table}

	spFilter := run.StartSpan("diffrun/filter")
	fn := cfg.Filter.ApplySet(normal)
	ff := cfg.Filter.ApplySet(faulty)
	spFilter.End()

	nv, fv := vocabs(normal.Registry, faulty.Registry)
	levels := []*levelRun{
		newLevelRun("thread level", "threads", threadObjects(fn, nv), threadObjects(ff, fv)),
		newLevelRun("process level", "processes", processObjects(fn, nv), processObjects(ff, fv)),
	}
	return diffRun(ctx, cfg, rep, table, levels)
}

// DiffRunStream executes the full pipeline over compressed StreamSets: the
// traces are never expanded — each summarization round re-decodes the
// per-thread FCM/RLE streams and filters symbols on the fly, attribute
// extraction consumes the summarized sequences (or re-streams the events
// for the caller→callee kind), and the lattice/JSM stages see exactly the
// inputs the batch path would hand them. The report is byte-identical to
// DiffRun on the materialized equivalent of the same bytes.
func DiffRunStream(normal, faulty *parlot.StreamSet, cfg Config) (*Report, error) {
	return DiffRunStreamContext(nil, normal, faulty, cfg)
}

// DiffRunStreamContext is DiffRunStream with cooperative cancellation,
// behaving exactly as DiffRunContext does: every stage boundary, worker
// claim, and (new here) per-object decode loop observes ctx, and a
// cancelled run aborts even under Config.Resilient. Workers, Resilient,
// and Obs compose identically to the batch path.
func DiffRunStreamContext(ctx context.Context, normal, faulty *parlot.StreamSet, cfg Config) (*Report, error) {
	cfg.Streaming = true
	if cfg.Filter == nil {
		cfg.Filter = filter.Everything()
	}
	if cfg.Attr.Kind == attr.Context && cfg.Filter.DropReturns {
		return nil, fmt.Errorf("core: caller/callee (ctx) attributes need return events; use a filter spec starting with 0")
	}
	run := cfg.Obs
	spRun := run.StartSpan("diffrun")
	defer spRun.End()
	table := nlr.NewTable()
	table.Observe(run)
	rep := &Report{Cfg: cfg, LoopTable: table}

	// Streaming defers filtering to decode time; the memo holds every
	// function's keep decision so replay filtering is one slice read per
	// event. One memo per registry (a normal/faulty pair shares its
	// registry by the same contract as TraceSets, but nothing breaks if it
	// doesn't).
	spFilter := run.StartSpan("diffrun/filter")
	nm := cfg.Filter.Memo(normal.Registry)
	fm := nm
	if faulty.Registry != normal.Registry {
		fm = cfg.Filter.Memo(faulty.Registry)
	}
	spFilter.End()

	nv, fv := vocabs(normal.Registry, faulty.Registry)
	levels := []*levelRun{
		newLevelRun("thread level", "threads",
			threadStreamObjects(normal, cfg.Filter, nm, nv), threadStreamObjects(faulty, cfg.Filter, fm, fv)),
		newLevelRun("process level", "processes",
			processStreamObjects(normal, cfg.Filter, nm, nv), processStreamObjects(faulty, cfg.Filter, fm, fv)),
	}
	return diffRun(ctx, cfg, rep, table, levels)
}

// diffRun is the shared pipeline tail: everything after object
// construction is common to the batch and streaming paths — the same
// summarization fixpoint, overlay merges, attribute extraction,
// canonicalization, and analysis run over both, which is what makes the
// equivalence structural rather than coincidental.
func diffRun(ctx context.Context, cfg Config, rep *Report, table *nlr.Table, levels []*levelRun) (*Report, error) {
	run := cfg.Obs
	prog := obs.ProgressFrom(ctx)
	if cfg.Streaming {
		// Mode marker for manifests; constant, so manifests stay
		// byte-identical across worker counts within the mode.
		run.Counter("core.streaming").Add(1)
	}

	// Level entry: historically the first stage of each level's work. In a
	// Resilient run a failure here kills just that level.
	for _, lv := range levels {
		lv := lv
		if !cfg.Resilient {
			fireStage(lv.stage, "")
			continue
		}
		if serr := resilience.Guard(lv.stage, "", func() error {
			fireStage(lv.stage, "")
			return nil
		}); serr != nil {
			lv.dead, lv.err = true, serr
		}
	}

	// Phase 1: NLR over every (level, side, object) of the live levels,
	// in parallel, against a shared deterministic loop table.
	prog.SetStage("summarize")
	spSum := run.StartSpan("summarize")
	if err := summarizeAll(ctx, levels, cfg, table); err != nil {
		return nil, err
	}
	spSum.End()
	run.Counter("nlr.table.bodies").Add(int64(table.Len()))

	// Phase 2: per-level attribute extraction + analysis; the two levels
	// run concurrently with a divided worker budget.
	prog.SetStage("analyze")
	spAn := run.StartSpan("analyze")
	w := cfg.workers()
	levelW := pool.Divide(w, len(levels))
	levelErrs := make([]error, len(levels))
	poolErr := pool.DoObservedContext(ctx, run, "core.levels", w, len(levels), func(i int) {
		lv := levels[i]
		if lv.dead {
			lv.level = emptyLevel()
			return
		}
		if !cfg.Resilient {
			levelErrs[i] = lv.analyze(ctx, cfg, levelW)
			return
		}
		if serr := resilience.Guard(lv.stage, "", func() error {
			return lv.analyze(ctx, cfg, levelW)
		}); serr != nil {
			lv.err = serr
			lv.level = emptyLevel()
		}
	})
	// Cancellation overrides Resilient degradation: any level failure that
	// coincides with a dead ctx is an abort, not a degraded run.
	if poolErr != nil {
		return nil, fmt.Errorf("core: analyze: %w", poolErr)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("core: analyze: %w", ctx.Err())
	}
	for i, lv := range levels {
		if err := levelErrs[i]; err != nil {
			return nil, fmt.Errorf("core: %s: %w", lv.stage, err)
		}
	}
	spAn.End()

	// Degraded accounting in canonical order: per level, the normal side's
	// NLR then attribute errors in object order, the faulty side's
	// likewise, then any level-wide failure.
	for _, lv := range levels {
		for _, s := range lv.sides {
			for _, e := range s.nlrErrs {
				if e != nil {
					rep.Degraded = append(rep.Degraded, e)
				}
			}
			for _, e := range s.attrErrs {
				if e != nil {
					rep.Degraded = append(rep.Degraded, e)
				}
			}
		}
		if lv.err != nil {
			rep.Degraded = append(rep.Degraded, lv.err)
		}
	}
	rep.Threads = levels[0].level
	rep.Processes = levels[1].level
	rep.observe(run, levels)
	return rep, nil
}

// observe folds the run's structural totals into the manifest: per-level
// object/attribute/JSM-cell counts, NLR sequence-length distribution, and
// the degraded-stage list (already in canonical order, so the manifest is
// schedule-independent). Counters rather than gauges so that sweeps, which
// share one obs.Run across many DiffRuns, aggregate deterministically.
func (rep *Report) observe(run *obs.Run, levels []*levelRun) {
	if run == nil {
		return
	}
	seqLen := run.Histogram("nlr.seq_len")
	for _, lv := range levels {
		// Metric names are compile-time literals per level key (the
		// obsdiscipline check forbids runtime-built names, which cap
		// cardinality at what the source declares).
		var objects, failed, attrsC, jsmCells *obs.Counter
		switch lv.key {
		case "threads":
			objects = run.Counter("core.threads.objects")
			failed = run.Counter("core.threads.failed")
			attrsC = run.Counter("core.threads.attrs")
			jsmCells = run.Counter("core.threads.jsm_cells")
		case "processes":
			objects = run.Counter("core.processes.objects")
			failed = run.Counter("core.processes.failed")
			attrsC = run.Counter("core.processes.attrs")
			jsmCells = run.Counter("core.processes.jsm_cells")
		}
		for _, s := range lv.sides {
			for i := range s.objs {
				objects.Add(1)
				if s.nlrErrs[i] != nil || s.attrErrs[i] != nil {
					failed.Add(1)
					continue
				}
				attrsC.Add(1)
				seqLen.Observe(int64(len(s.elems[i])))
			}
		}
		if lv.level != nil && lv.level.JSMD != nil {
			n := len(lv.level.JSMD.Names)
			jsmCells.Add(int64(n * (n - 1) / 2))
		}
	}
	for _, e := range rep.Degraded {
		run.AddDegraded(e.Stage, e.Object, e.Err.Error())
	}
	run.Counter("core.degraded").Add(int64(len(rep.Degraded)))
}

func newLevelRun(stage, key string, nObjs, fObjs []object) *levelRun {
	nObjs, fObjs = union(nObjs, fObjs)
	return &levelRun{
		stage: stage,
		key:   key,
		sides: [2]*sideRun{newSideRun("normal", nObjs), newSideRun("faulty", fObjs)},
	}
}

// nlrItem addresses one (level, side, object) summarization unit.
type nlrItem struct {
	lv   *levelRun
	side *sideRun
	idx  int
}

// summarizeAll is the parallel NLR phase. Each round summarizes every live
// object against a frozen view of the shared loop table, writing new loop
// bodies into a private overlay (nlr.NewOverlay); at the round barrier the
// overlays are absorbed into the table in canonical item order, which fixes
// the ID of every body independently of scheduling. Rounds repeat until
// the table stops growing, so loops discovered in any trace fold in every
// other (the cross-trace heuristic nlr.SummarizeSet's two passes provide,
// iterated to a fixpoint and symmetric across the normal/faulty sides).
//
// With Workers <= 1 the same rounds run inline on one goroutine; since the
// absorb order never depends on scheduling, the resulting table and element
// sequences are identical for every worker count.
func summarizeAll(ctx context.Context, levels []*levelRun, cfg Config, table *nlr.Table) error {
	var items []nlrItem
	for _, lv := range levels {
		if lv.dead {
			continue
		}
		for _, s := range lv.sides {
			for i := range s.objs {
				items = append(items, nlrItem{lv: lv, side: s, idx: i})
			}
		}
	}
	w := cfg.workers()
	run := cfg.Obs
	prevLen := -1
	for round := 0; round < maxRounds && table.Len() != prevLen; round++ {
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("core: summarize: %w", ctx.Err())
		}
		prevLen = table.Len()
		run.Counter("nlr.rounds").Add(1)
		overlays := make([]*nlr.Table, len(items))
		elems := make([][]nlr.Element, len(items))
		roundErrs := make([]*resilience.StageError, len(items))
		poolErr := pool.DoObservedContext(ctx, run, "core.summarize", w, len(items), func(i int) {
			it := items[i]
			if it.side.nlrErrs[it.idx] != nil {
				return // failed in an earlier round; stays skipped
			}
			o := it.side.objs[it.idx]
			stage := it.lv.stage + "/" + it.side.name + "/nlr"
			sp := run.StartSpan("summarize/" + it.lv.key + "/" + it.side.name)
			defer sp.End()
			work := func() {
				fireStage(stage, o.name)
				ov := nlr.NewOverlay(table)
				elems[i] = o.summarize(ctx, cfg.Filter.K, ov)
				overlays[i] = ov
			}
			if !cfg.Resilient {
				work()
				return
			}
			if serr := resilience.Guard(stage, o.name, func() error {
				work()
				return nil
			}); serr != nil {
				roundErrs[i] = serr
			}
		})
		if poolErr != nil {
			// Cancelled mid-round: the partial overlays must not be
			// absorbed — a ctx abort leaves no half-merged table behind.
			return fmt.Errorf("core: summarize: %w", poolErr)
		}
		// Barrier: merge discoveries in canonical order and land the
		// round's sequences (remapped to the canonical IDs).
		for i, it := range items {
			if roundErrs[i] != nil {
				it.side.nlrErrs[it.idx] = roundErrs[i]
				it.side.elems[it.idx] = nil
				continue
			}
			if overlays[i] == nil {
				continue
			}
			remap := table.Absorb(overlays[i])
			it.side.elems[it.idx] = nlr.RemapElements(elems[i], remap)
		}
	}
	return nil
}

// analyze runs one level's attribute extraction and both sides' analyses,
// then the cross-side comparison, with up to w workers. A dead ctx aborts
// between stages with the wrapped ctx error.
func (lv *levelRun) analyze(ctx context.Context, cfg Config, w int) error {
	// Attribute extraction over both sides' objects in parallel. Failed
	// objects (either stage) are excluded from both sides below.
	type attrItem struct {
		side *sideRun
		idx  int
	}
	var items []attrItem
	for _, s := range lv.sides {
		for i := range s.objs {
			if s.nlrErrs[i] == nil {
				items = append(items, attrItem{side: s, idx: i})
			}
		}
	}
	run := cfg.Obs
	attrErr := pool.DoObservedContext(ctx, run, "core.attr", w, len(items), func(i int) {
		it := items[i]
		o := it.side.objs[it.idx]
		stage := lv.stage + "/" + it.side.name + "/attr"
		sp := run.StartSpan("analyze/" + lv.key + "/" + it.side.name + "/attr")
		defer sp.End()
		work := func() {
			fireStage(stage, o.name)
			if cfg.Attr.Kind == attr.Context {
				// Caller→callee attributes come from the raw enter/exit
				// nesting, not the NLR sequence.
				it.side.attrs[it.idx] = o.extractContext(ctx, cfg.Attr.Freq)
			} else {
				it.side.attrs[it.idx] = attr.Extract(it.side.elems[it.idx], cfg.Attr)
			}
		}
		if !cfg.Resilient {
			work()
			return
		}
		if serr := resilience.Guard(stage, o.name, func() error {
			work()
			return nil
		}); serr != nil {
			it.side.attrErrs[it.idx] = serr
		}
	})
	if attrErr != nil {
		return fmt.Errorf("attr: %w", attrErr)
	}

	// An object skipped on either side must leave both, so the two JSMs
	// keep identical name sets and jaccard.Diff/BScore stay well-defined.
	excluded := map[string]bool{}
	for _, s := range lv.sides {
		for i, o := range s.objs {
			if s.nlrErrs[i] != nil || s.attrErrs[i] != nil {
				excluded[o.name] = true
			}
		}
	}

	// Canonicalize: the parallel extraction above built each set in a
	// private universe; rebind them all to one per-level interner, in
	// canonical (side, object) order with sorted attributes, so dense IDs
	// are schedule-independent and both sides' intents share a bit universe
	// — every lattice and JSM kernel below is then pure word arithmetic.
	interner := fca.NewInterner()
	for _, s := range lv.sides {
		for i := range s.objs {
			if s.attrs[i] != nil {
				s.attrs[i] = fca.NewAttrSetIn(interner, s.attrs[i].Sorted()...)
			}
		}
	}

	// Both sides' lattice/JSM/linkage builds run concurrently. They only
	// read the now-frozen interner, so IDs stay deterministic.
	sideW := pool.Divide(w, 2)
	var analyses [2]*Analysis
	sideErrs := make([]error, 2)
	buildErr := pool.DoObservedContext(ctx, run, "core.sides", w, 2, func(i int) {
		sp := run.StartSpan("analyze/" + lv.key + "/" + lv.sides[i].name + "/build")
		defer sp.End()
		analyses[i], sideErrs[i] = lv.sides[i].buildAnalysis(cfg, interner, excluded, sideW)
	})
	if buildErr != nil {
		return fmt.Errorf("build: %w", buildErr)
	}
	for _, err := range sideErrs {
		if err != nil {
			return err
		}
	}
	normal, faulty := analyses[0], analyses[1]

	spDiff := run.StartSpan("analyze/" + lv.key + "/diff")
	defer spDiff.End()
	jsmd, err := jaccard.Diff(faulty.JSM, normal.JSM)
	if err != nil {
		return err
	}
	b, err := bscore.BScore(normal.Linkage, faulty.Linkage)
	if err != nil {
		return err
	}
	lv.level = &Level{
		Normal:   normal,
		Faulty:   faulty,
		JSMD:     jsmd,
		BScore:   b,
		Suspects: jsmd.Suspects(),
	}
	return nil
}

// buildAnalysis assembles the lattice/JSM/linkage for one execution side
// from the objects that survived summarization and extraction. All attr
// sets are already bound to the per-level interner, which the side's
// lattice shares so normal/faulty intents stay comparable as bitsets.
func (s *sideRun) buildAnalysis(cfg Config, interner *fca.Interner, excluded map[string]bool, w int) (*Analysis, error) {
	nlrs := make(map[string][]nlr.Element, len(s.objs))
	attrs := make(map[string]fca.AttrSet, len(s.objs))
	for i, o := range s.objs {
		if excluded[o.name] {
			continue
		}
		nlrs[o.name] = s.elems[i]
		attrs[o.name] = s.attrs[i]
	}
	a := &Analysis{NLR: nlrs, Attrs: attrs}
	if cfg.BuildLattices {
		a.Lattice = fca.NewLatticeWith(interner)
		a.Lattice.Observe(cfg.Obs)
		for _, o := range s.objs {
			if at, ok := attrs[o.name]; ok {
				a.Lattice.AddObject(o.name, at)
			}
		}
		a.JSM = jaccard.FromLattice(a.Lattice)
	} else {
		a.JSM = jaccard.NewParallelObserved(attrs, w, cfg.Obs)
	}
	lk, err := cluster.Build(a.JSM.Distance(), cfg.Linkage)
	if err != nil {
		return nil, err
	}
	a.Linkage = lk
	return a, nil
}

// emptyLevel is the placeholder for a level that failed wholesale in a
// Resilient run: renderable (non-nil analyses, empty matrices), with no
// suspects.
func emptyLevel() *Level {
	empty := func() *Analysis {
		return &Analysis{
			NLR:     map[string][]nlr.Element{},
			Attrs:   map[string]fca.AttrSet{},
			JSM:     jaccard.New(nil),
			Linkage: &cluster.Linkage{},
		}
	}
	return &Level{Normal: empty(), Faulty: empty(), JSMD: jaccard.New(nil)}
}

// object is a named event source: either a filtered materialized trace
// (batch mode — tr is set) or a bundle of compressed per-thread streams
// filtered during replay (streaming mode — sts is set). Ghosts created by
// union carry an empty tr in both modes.
type object struct {
	name string
	tr   *trace.Trace
	// voc resolves the object's events to names and NLR tokens, once per
	// job and registry.
	voc *nlr.Vocab

	// Streaming-mode source: the compressed streams (one for a thread
	// object, the process's threads in thread order for a process object)
	// plus the filter applied per decoded symbol. Nil in batch mode.
	sts []*parlot.StreamTrace
	flt *filter.Filter
	km  *filter.Memo
}

// vocabs resolves the events of a normal/faulty registry pair once per
// job; a pair sharing its registry shares one Vocab.
func vocabs(normal, faulty *trace.Registry) (*nlr.Vocab, *nlr.Vocab) {
	nv := nlr.NewVocab(normal)
	if faulty == normal {
		return nv, nv
	}
	return nv, nlr.NewVocab(faulty)
}

// forEachEvent walks the object's filtered events in trace order. The
// batch path reads the already-filtered materialized trace; the streaming
// path re-decodes the compressed blocks and applies the identical filter
// predicate (drop-returns on kind, then the memoized KeepName) per symbol
// — the same decisions filter.Apply makes, in the same order, which is
// what makes the two modes' event streams equal event for event. Events
// are yielded as registry function IDs: no name is looked up and no lock
// taken per event.
//
// ctx is observed every few thousand events so multi-million-event streams
// stay cancellable mid-object. An early bail implies ctx.Err() != nil,
// which the pipeline's stage-boundary checks turn into a run abort — a
// partially walked object can never reach a successful report.
//
// The same stride feeds the job's live Progress (when the ctx carries one):
// the decoded-event count is flushed once per 8192 events plus once at the
// end, so a scrape of GET /v1/jobs/{id} sees the tokenizer advance at one
// atomic add per batch, not per event.
func (o object) forEachEvent(ctx context.Context, yield func(fn uint32, kind trace.EventKind)) {
	prog := obs.ProgressFrom(ctx)
	n := 0
	flushed := 0
	defer func() {
		if n > flushed {
			prog.AddEvents(int64(n - flushed))
		}
	}()
	alive := func() bool {
		n++
		if n&0x1fff != 0 {
			return true
		}
		prog.AddEvents(int64(n - flushed))
		flushed = n
		return ctx == nil || ctx.Err() == nil
	}
	if o.sts == nil {
		for _, e := range o.tr.Events {
			if !alive() {
				return
			}
			yield(e.Func, e.Kind)
		}
		return
	}
	for _, st := range o.sts {
		r := st.Reader()
		for {
			fn, kind, ok := r.Next()
			if !ok {
				break
			}
			if !alive() {
				return
			}
			if o.flt.DropReturns && kind == trace.Exit {
				continue
			}
			if !o.km.Keep(fn) {
				continue
			}
			yield(fn, kind)
		}
	}
}

// summarize runs NLR over the object's filtered events: the same
// tokenization as nlr.SummarizeTrace (exits surviving the filter render as
// "ret:<name>"), pushed through one code path for both modes so their
// summaries are equal by construction.
func (o object) summarize(ctx context.Context, k int, table *nlr.Table) []nlr.Element {
	s := summarizers.Get().(*nlr.Summarizer)
	defer summarizers.Put(s)
	s.Reset(k, table)
	o.forEachEvent(ctx, func(fn uint32, kind trace.EventKind) {
		s.PushToken(o.voc.Token(fn, kind))
	})
	s.Finalize()
	return s.Elements()
}

// summarizers recycles Summarizer buffers across objects and rounds;
// Elements hands out copies, so nothing returned aliases them.
var summarizers = sync.Pool{New: func() any { return new(nlr.Summarizer) }}

// extractContext mines caller→callee attributes from the object's raw
// enter/exit stream; both modes drive the shared attr.ContextStream
// accumulator (the one attr.ExtractContext wraps).
func (o object) extractContext(ctx context.Context, f attr.Freq) fca.AttrSet {
	cs := attr.NewContextStream()
	o.forEachEvent(ctx, func(fn uint32, kind trace.EventKind) {
		cs.Push(o.voc.Name(fn), kind)
	})
	return cs.ExtractIn(attr.NewInterner(), f)
}

// threadObjects names every per-thread trace "p.t".
func threadObjects(s *trace.TraceSet, voc *nlr.Vocab) []object {
	var out []object
	for _, id := range s.IDs() {
		out = append(out, object{name: id.String(), tr: s.Traces[id], voc: voc})
	}
	return out
}

// processObjects merges each process's threads into one object named "p".
func processObjects(s *trace.TraceSet, voc *nlr.Vocab) []object {
	var out []object
	for _, p := range s.Processes() {
		out = append(out, object{name: strconv.Itoa(p), tr: s.ProcessTrace(p), voc: voc})
	}
	return out
}

// threadStreamObjects names every per-thread stream "p.t" (streaming
// counterpart of threadObjects over a filtered set — the filter rides
// along and applies at decode time).
func threadStreamObjects(ss *parlot.StreamSet, flt *filter.Filter, km *filter.Memo, voc *nlr.Vocab) []object {
	var out []object
	for _, id := range ss.IDs() {
		out = append(out, object{
			name: id.String(), voc: voc,
			sts: []*parlot.StreamTrace{ss.Get(id)}, flt: flt, km: km,
		})
	}
	return out
}

// processStreamObjects bundles each process's thread streams, in thread
// order, into one object named "p" — the same concatenation
// trace.TraceSet.ProcessTrace materializes, expressed as sequential
// replay.
func processStreamObjects(ss *parlot.StreamSet, flt *filter.Filter, km *filter.Memo, voc *nlr.Vocab) []object {
	var out []object
	for _, p := range ss.Processes() {
		var sts []*parlot.StreamTrace
		for _, id := range ss.IDs() {
			if id.Process == p {
				sts = append(sts, ss.Get(id))
			}
		}
		out = append(out, object{
			name: strconv.Itoa(p), voc: voc,
			sts: sts, flt: flt, km: km,
		})
	}
	return out
}

// union aligns two object lists by name: objects missing on one side get an
// empty trace (a thread that never spawned in the faulty run is itself a
// signal, not an error). Ghosts are appended in natural name order so the
// object sequence — and with it the canonical loop-table merge order — is
// fully deterministic.
func union(a, b []object) ([]object, []object) {
	names := map[string]bool{}
	for _, o := range a {
		names[o.name] = true
	}
	for _, o := range b {
		names[o.name] = true
	}
	fill := func(objs []object) []object {
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
			objs = append(objs, object{name: n, tr: &trace.Trace{}})
		}
		return objs
	}
	return fill(a), fill(b)
}

// DiffNLR renders the diffNLR(x) view for an object of the given level
// (§II-F.1): the Myers diff of its normal vs faulty NLR token sequences.
func (r *Report) DiffNLR(level *Level, name string) (*diffnlr.DiffNLR, error) {
	n, ok := level.Normal.NLR[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown object %q", name)
	}
	f := level.Faulty.NLR[name]
	id, err := trace.ParseThreadID(name)
	if err != nil {
		id = trace.TID(0, 0)
	}
	return diffnlr.Compute(id, nlr.Tokens(n), nlr.Tokens(f), r.LoopTable), nil
}
