// Package core is DiffTrace's pipeline (Figure 1): it wires the substrates
// together into the paper's analysis loop —
//
//	ParLOT traces → filter → NLR → FCA attributes → concept lattice / JSM
//	  → JSM_D → hierarchical clustering → B-score → suspect ranking
//	  → diffNLR of the suspicious traces.
//
// One DiffRun compares a normal execution against a faulty one under a
// single parameter combination (filter spec, attribute config, linkage
// method). It is two phases: Summarize filters and NLR-summarizes both
// executions, which depends on the filter spec alone, and Analyze takes the
// summaries from attributes to suspects for one attribute config and
// linkage. The rank package sweeps combinations to build the paper's
// ranking tables, summarizing once per spec. Each execution is a Source: a
// materialized trace.TraceSet or a compressed parlot.StreamSet, read
// through the same event loop.
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
// workloads converge in two rounds: one that reads every event and one
// that only finalizes the saved stacks again. The cap only guards against
// pathological parse oscillation.
const maxRounds = 4

// sideRun is one execution side of one level, as summarized.
type sideRun struct {
	name string // "normal" | "faulty"
	objs []object
	// Per-object state, indexed like objs. elems holds the final-round NLR
	// sequences; objects whose summarization failed carry their
	// StageError in nlrErrs.
	elems   [][]nlr.Element
	nlrErrs []*resilience.StageError
}

func newSideRun(name string, objs []object) *sideRun {
	return &sideRun{
		name:    name,
		objs:    objs,
		elems:   make([][]nlr.Element, len(objs)),
		nlrErrs: make([]*resilience.StageError, len(objs)),
	}
}

// levelRun is one level of a Summaries: its two summarized sides. Analyze
// only reads it.
type levelRun struct {
	stage string
	key   string      // obs span segment: "threads" | "processes"
	sides [2]*sideRun // 0 = normal, 1 = faulty
	// dead marks a level whose entry stage failed (Resilient runs): its
	// objects are excluded from summarization, err holds the failure, and
	// every Analyze degrades the level to emptyLevel.
	dead bool
	err  *resilience.StageError
}

// levelAnalysis is one Analyze call's state for one level: each side's
// attribute sets and extraction failures (indexed like sideRun.objs), a
// level-wide analysis failure, and the resulting Level.
type levelAnalysis struct {
	attrs    [2][]fca.AttrSet
	attrErrs [2][]*resilience.StageError
	err      *resilience.StageError
	level    *Level
}

func newLevelAnalysis(lv *levelRun) *levelAnalysis {
	la := &levelAnalysis{}
	for k, s := range lv.sides {
		la.attrs[k] = make([]fca.AttrSet, len(s.objs))
		la.attrErrs[k] = make([]*resilience.StageError, len(s.objs))
	}
	return la
}

// Source is one execution's per-thread event streams: a materialized
// *trace.TraceSet or a compressed *parlot.StreamSet, which replays its
// traces without expanding them.
type Source interface {
	// IDs returns the thread IDs in (process, thread) order.
	IDs() []trace.ThreadID
	// Reader returns a fresh reader over the events of thread id.
	Reader(id trace.ThreadID) trace.EventReader
	// Funcs returns the registry that interned the function names.
	Funcs() *trace.Registry
}

// DiffRun executes the full pipeline for one parameter combination.
func DiffRun(normal, faulty Source, cfg Config) (*Report, error) {
	return DiffRunContext(nil, normal, faulty, cfg)
}

// DiffRunStream is DiffRun over compressed sets. It remains only because
// the benchmark module under _perfbench calls it.
func DiffRunStream(normal, faulty *parlot.StreamSet, cfg Config) (*Report, error) {
	return DiffRun(normal, faulty, cfg)
}

// DiffRunStreamContext is DiffRunContext over compressed sets. It remains
// only because the benchmark module under _perfbench calls it.
func DiffRunStreamContext(ctx context.Context, normal, faulty *parlot.StreamSet, cfg Config) (*Report, error) {
	return DiffRunContext(ctx, normal, faulty, cfg)
}

// DiffRunContext is DiffRun with cooperative cancellation: ctx is observed
// at every stage boundary, between worker-pool claims (pool.Do) and
// every few thousand events an object reads, so a run can be cut short by
// a caller-supplied deadline or cancellation. A cancelled run returns the
// wrapped ctx error — cancellation always aborts, even under
// Config.Resilient, because a partial report must never be mistaken for a
// degraded-but-complete one. A nil ctx is never cancelled, making
// DiffRunContext(nil, ...) exactly DiffRun.
//
// A run is its two phases: Summarize, then one Analyze of cfg.Attr and
// cfg.Linkage.
func DiffRunContext(ctx context.Context, normal, faulty Source, cfg Config) (*Report, error) {
	if cfg.Filter == nil {
		cfg.Filter = filter.Everything()
	}
	if err := checkAttr(cfg.Filter, cfg.Attr); err != nil {
		return nil, err
	}
	spRun := cfg.Obs.StartSpan("diffrun")
	defer spRun.End()
	s, err := Summarize(ctx, normal, faulty, cfg)
	if err != nil {
		return nil, err
	}
	return s.Analyze(ctx, cfg.Attr, cfg.Linkage)
}

// checkAttr rejects an attribute config the filter cannot feed.
func checkAttr(flt *filter.Filter, ac attr.Config) error {
	if ac.Kind == attr.Context && flt.DropReturns {
		return fmt.Errorf("core: caller/callee (ctx) attributes need return events; use a filter spec starting with 0")
	}
	return nil
}

// Summaries is the attribute-independent half of a DiffRun: both
// executions' thread and process objects, filtered and NLR-summarized
// against one loop table. Nothing in it depends on the attribute config or
// the linkage, so a sweep summarizes once per filter spec and analyzes
// every combination of that spec from the same Summaries.
type Summaries struct {
	cfg    Config
	table  *nlr.Table
	levels []*levelRun
}

// Summarize is a DiffRun's first phase under cfg's filter, worker budget,
// Resilient and Obs settings: it resolves the filter's keep decisions and
// the NLR vocabulary once per registry, lists both sides' objects, enters
// each level, and runs the NLR rounds. cfg.Attr and cfg.Linkage are not
// read; Analyze supplies them. ctx is honoured as in DiffRunContext.
//
// Summarization reads each source once per level, filtering events as they
// are read, so a compressed source is never expanded: the NLR rounds after
// the first finalize each object's saved stack again instead of replaying
// its events, and peak memory is bounded by the compressed traces plus the
// summarized forms. The result depends only on the events, never on which
// kind of Source carried them.
func Summarize(ctx context.Context, normal, faulty Source, cfg Config) (*Summaries, error) {
	s := enterLevels(normal, faulty, cfg)
	run := s.cfg.Obs

	// NLR over every (level, side, object) of the live levels, in
	// parallel, against a shared deterministic loop table.
	obs.ProgressFrom(ctx).SetStage("summarize")
	spSum := run.StartSpan("summarize")
	if err := summarizeAll(ctx, s.levels, s.cfg, s.table); err != nil {
		return nil, err
	}
	spSum.End()
	run.Counter("nlr.table.bodies").Add(int64(s.table.Len()))
	return s, nil
}

// enterLevels is Summarize up to the NLR rounds: it lists both sides'
// objects under the filter's keep decisions and vocabulary, and enters
// each level. The returned Summaries has an empty loop table and no NLR
// sequences yet.
func enterLevels(normal, faulty Source, cfg Config) *Summaries {
	if cfg.Filter == nil {
		cfg.Filter = filter.Everything()
	}
	run := cfg.Obs
	table := nlr.NewTable()
	table.Observe(run)

	// Keep decisions and NLR vocabulary are resolved once per job and
	// registry (a normal/faulty pair normally shares one).
	spFilter := run.StartSpan("diffrun/filter")
	nk, fk := perRegistry(normal, faulty, cfg.Filter.Memo)
	spFilter.End()
	nv, fv := perRegistry(normal, faulty, nlr.NewVocab)
	nThreads, nProcs := objects(normal, nk, nv)
	fThreads, fProcs := objects(faulty, fk, fv)
	levels := []*levelRun{
		newLevelRun("thread level", "threads", nThreads, fThreads),
		newLevelRun("process level", "processes", nProcs, fProcs),
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
	return &Summaries{cfg: cfg, table: table, levels: levels}
}

// Analyze is a DiffRun's second phase for one attribute config and linkage
// method: per level, attribute extraction, the lattices or JSMs, both
// linkages, JSM_D, the B-score and the suspects. The two levels run
// concurrently with a divided worker budget. The report is byte-identical
// to DiffRunContext's for the same combination. Analyze leaves s
// unchanged, so any number of calls may share it; the reports share its
// loop table and NLR sequences.
func (s *Summaries) Analyze(ctx context.Context, ac attr.Config, method cluster.Method) (*Report, error) {
	cfg := s.cfg
	cfg.Attr, cfg.Linkage = ac, method
	if err := checkAttr(cfg.Filter, ac); err != nil {
		return nil, err
	}
	run := cfg.Obs
	obs.ProgressFrom(ctx).SetStage("analyze")
	spAn := run.StartSpan("analyze")
	w := cfg.workers()
	levelW := pool.Divide(w, len(s.levels))
	res := make([]*levelAnalysis, len(s.levels))
	for i, lv := range s.levels {
		res[i] = newLevelAnalysis(lv)
	}
	levelErrs := make([]error, len(s.levels))
	poolErr := pool.Do(ctx, run, "core.levels", w, len(s.levels), func(i int) {
		lv, la := s.levels[i], res[i]
		if lv.dead {
			la.level = emptyLevel()
			return
		}
		if !cfg.Resilient {
			levelErrs[i] = lv.analyze(ctx, cfg, levelW, la)
			return
		}
		if serr := resilience.Guard(lv.stage, "", func() error {
			return lv.analyze(ctx, cfg, levelW, la)
		}); serr != nil {
			la.err = serr
			la.level = emptyLevel()
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
	for i, lv := range s.levels {
		if err := levelErrs[i]; err != nil {
			return nil, fmt.Errorf("core: %s: %w", lv.stage, err)
		}
	}
	spAn.End()

	// Degraded accounting in canonical order: per level, the normal side's
	// NLR then attribute errors in object order, the faulty side's
	// likewise, then any level-wide failure.
	rep := &Report{Cfg: cfg, LoopTable: s.table}
	for i, lv := range s.levels {
		la := res[i]
		for k, side := range lv.sides {
			for _, errs := range [][]*resilience.StageError{side.nlrErrs, la.attrErrs[k]} {
				for _, e := range errs {
					if e != nil {
						rep.Degraded = append(rep.Degraded, e)
					}
				}
			}
		}
		for _, e := range []*resilience.StageError{lv.err, la.err} {
			if e != nil {
				rep.Degraded = append(rep.Degraded, e)
			}
		}
	}
	rep.Threads = res[0].level
	rep.Processes = res[1].level
	rep.observe(run, s.levels, res)
	return rep, nil
}

// observe folds the run's structural totals into the manifest: per-level
// object/attribute/JSM-cell counts, NLR sequence-length distribution, and
// the degraded-stage list (already in canonical order, so the manifest is
// schedule-independent). Counters rather than gauges so that sweeps, which
// share one obs.Run across many analyses, aggregate deterministically.
func (rep *Report) observe(run *obs.Run, levels []*levelRun, res []*levelAnalysis) {
	if run == nil {
		return
	}
	seqLen := run.Histogram("nlr.seq_len")
	for li, lv := range levels {
		la := res[li]
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
		for k, s := range lv.sides {
			for i := range s.objs {
				objects.Add(1)
				if s.nlrErrs[i] != nil || la.attrErrs[k][i] != nil {
					failed.Add(1)
					continue
				}
				attrsC.Add(1)
				seqLen.Observe(int64(len(s.elems[i])))
			}
		}
		if la.level != nil && la.level.JSMD != nil {
			n := len(la.level.JSMD.Names)
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
// Only round 0 reads the events. It keeps each object's stack as the last
// push left it, and the round-0 barrier renames that stack's loops to their
// canonical IDs with the overlay's Absorb remap. Pushing the events again
// against the grown table would rebuild exactly that stack, since every
// body on it is now in the table, so a later round restores the stack and
// only finalizes it: O(summary) per object instead of O(events). A later
// round's remap covers only IDs at or above that round's horizon, which a
// canonical saved stack never holds. The stacks die with this call, and
// only the last round's sequences are remapped and land.
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
	stacks := make([]*nlr.Stack, len(items))
	// Each item's sequence from the last round it ran, and that round's
	// Absorb remap to canonical IDs. Only the last round lands.
	elems := make([][]nlr.Element, len(items))
	remaps := make([]map[int]int, len(items))
	prevLen := -1
	for round := 0; round < maxRounds && table.Len() != prevLen; round++ {
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("core: summarize: %w", ctx.Err())
		}
		prevLen = table.Len()
		run.Counter("nlr.rounds").Add(1)
		overlays := make([]*nlr.Table, len(items))
		roundErrs := make([]*resilience.StageError, len(items))
		poolErr := pool.Do(ctx, run, "core.summarize", w, len(items), func(i int) {
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
				if round == 0 {
					elems[i], stacks[i] = o.summarize(ctx, cfg.Filter.K, ov)
				} else {
					elems[i] = refinalize(stacks[i], ov)
				}
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
		// Barrier: merge discoveries in canonical order.
		for i, it := range items {
			if roundErrs[i] != nil {
				it.side.nlrErrs[it.idx] = roundErrs[i]
				continue
			}
			if overlays[i] == nil {
				continue
			}
			remaps[i] = table.Absorb(overlays[i])
			if round == 0 {
				stacks[i].Remap(remaps[i])
			}
		}
	}
	// Land each surviving object's last-round sequence, remapped to the
	// canonical IDs. A round that grew the table is always followed by one
	// that finalizes again, so earlier rounds' sequences never land.
	for i, it := range items {
		if it.side.nlrErrs[it.idx] == nil {
			it.side.elems[it.idx] = nlr.RemapElements(elems[i], remaps[i])
		}
	}
	return nil
}

// analyze runs one level's attribute extraction and both sides' analyses,
// then the cross-side comparison, with up to w workers, into la. A dead ctx
// aborts between stages with the wrapped ctx error.
func (lv *levelRun) analyze(ctx context.Context, cfg Config, w int, la *levelAnalysis) error {
	// Attribute extraction over both sides' objects in parallel. Failed
	// objects (either stage) are excluded from both sides below.
	type attrItem struct {
		side int
		idx  int
	}
	var items []attrItem
	for k, s := range lv.sides {
		for i := range s.objs {
			if s.nlrErrs[i] == nil {
				items = append(items, attrItem{side: k, idx: i})
			}
		}
	}
	run := cfg.Obs
	attrErr := pool.Do(ctx, run, "core.attr", w, len(items), func(i int) {
		it := items[i]
		side := lv.sides[it.side]
		o := side.objs[it.idx]
		stage := lv.stage + "/" + side.name + "/attr"
		sp := run.StartSpan("analyze/" + lv.key + "/" + side.name + "/attr")
		defer sp.End()
		work := func() {
			fireStage(stage, o.name)
			if cfg.Attr.Kind == attr.Context {
				// Caller→callee attributes come from the raw enter/exit
				// nesting, not the NLR sequence.
				la.attrs[it.side][it.idx] = o.extractContext(ctx, cfg.Attr.Freq)
			} else {
				la.attrs[it.side][it.idx] = attr.Extract(side.elems[it.idx], cfg.Attr)
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
			la.attrErrs[it.side][it.idx] = serr
		}
	})
	if attrErr != nil {
		return fmt.Errorf("attr: %w", attrErr)
	}

	// An object skipped on either side must leave both, so the two JSMs
	// keep identical name sets and jaccard.Diff/BScore stay well-defined.
	excluded := map[string]bool{}
	for k, s := range lv.sides {
		for i, o := range s.objs {
			if s.nlrErrs[i] != nil || la.attrErrs[k][i] != nil {
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
	for _, attrs := range la.attrs {
		for i, a := range attrs {
			if a != nil {
				attrs[i] = fca.NewAttrSetIn(interner, a.Sorted()...)
			}
		}
	}

	// Both sides' lattice/JSM/linkage builds run concurrently. They only
	// read the now-frozen interner, so IDs stay deterministic.
	sideW := pool.Divide(w, 2)
	var analyses [2]*Analysis
	sideErrs := make([]error, 2)
	buildErr := pool.Do(ctx, run, "core.sides", w, 2, func(i int) {
		sp := run.StartSpan("analyze/" + lv.key + "/" + lv.sides[i].name + "/build")
		defer sp.End()
		analyses[i], sideErrs[i] = lv.sides[i].buildAnalysis(la.attrs[i], cfg, interner, excluded, sideW)
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
	la.level = &Level{
		Normal:   normal,
		Faulty:   faulty,
		JSMD:     jsmd,
		BScore:   b,
		Suspects: jsmd.Suspects(),
	}
	return nil
}

// buildAnalysis assembles the lattice/JSM/linkage for one execution side
// from the objects that survived summarization and extraction, whose
// attribute sets objAttrs holds (indexed like s.objs). All attr sets are
// already bound to the per-level interner, which the side's lattice shares
// so normal/faulty intents stay comparable as bitsets.
func (s *sideRun) buildAnalysis(objAttrs []fca.AttrSet, cfg Config, interner *fca.Interner, excluded map[string]bool, w int) (*Analysis, error) {
	nlrs := make(map[string][]nlr.Element, len(s.objs))
	attrs := make(map[string]fca.AttrSet, len(s.objs))
	for i, o := range s.objs {
		if excluded[o.name] {
			continue
		}
		nlrs[o.name] = s.elems[i]
		attrs[o.name] = objAttrs[i]
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

// object is one named event source of a level: a thread object ("p.t")
// replays one trace, a process object ("p") its process's traces in thread
// order. Ghosts created by union replay nothing.
type object struct {
	name string
	src  Source
	ids  []trace.ThreadID
	keep *filter.Memo
	// voc resolves the object's events to names and NLR tokens, once per
	// job and registry.
	voc *nlr.Vocab
}

// perRegistry builds a per-registry table for both sides of a run, once
// when the two sources share their registry.
func perRegistry[T any](normal, faulty Source, build func(*trace.Registry) T) (T, T) {
	n := build(normal.Funcs())
	if faulty.Funcs() == normal.Funcs() {
		return n, n
	}
	return n, build(faulty.Funcs())
}

// objects lists a source's thread objects, named "p.t", and its process
// objects, named "p", each of which concatenates its threads in thread
// order.
func objects(src Source, keep *filter.Memo, voc *nlr.Vocab) (threads, procs []object) {
	for _, id := range src.IDs() {
		threads = append(threads, object{name: id.String(), src: src, ids: []trace.ThreadID{id}, keep: keep, voc: voc})
		if n := len(procs); n == 0 || procs[n-1].ids[0].Process != id.Process {
			procs = append(procs, object{name: strconv.Itoa(id.Process), src: src, keep: keep, voc: voc})
		}
		p := &procs[len(procs)-1]
		p.ids = append(p.ids, id)
	}
	return threads, procs
}

// forEachEvent reads the object's traces in order and yields the events
// that survive the filter (drop-returns on kind, then the memoized keep
// decision) — the same decisions filter.Apply makes, in the same order.
// Events are yielded as registry function IDs: no name is looked up and no
// lock taken per event.
//
// ctx is observed every few thousand events read so multi-million-event
// traces stay cancellable mid-object. An early bail implies ctx.Err() !=
// nil, which the pipeline's stage-boundary checks turn into a run abort —
// a partially walked object can never reach a successful report.
//
// The same stride feeds the job's live Progress (when the ctx carries one)
// with the events read, before the filter: the count is flushed once per
// 8192 events plus once at the end, so a scrape of GET /v1/jobs/{id} sees
// the reader advance at one atomic add per batch, not per event.
func (o object) forEachEvent(ctx context.Context, yield func(fn uint32, kind trace.EventKind)) {
	prog := obs.ProgressFrom(ctx)
	n := 0
	flushed := 0
	defer func() {
		if n > flushed {
			prog.AddEvents(int64(n - flushed))
		}
	}()
	for _, id := range o.ids {
		r := o.src.Reader(id)
		for {
			fn, kind, ok := r.Next()
			if !ok {
				break
			}
			if n++; n&0x1fff == 0 {
				prog.AddEvents(int64(n - flushed))
				flushed = n
				if ctx != nil && ctx.Err() != nil {
					return
				}
			}
			if o.keep.KeepEvent(fn, kind) {
				yield(fn, kind)
			}
		}
	}
}

// summarize runs NLR over the object's filtered events: the same
// tokenization as nlr.SummarizeTrace (exits surviving the filter render as
// "ret:<name>"). It returns the summarized sequence and the stack as the
// last push left it, for refinalize.
func (o object) summarize(ctx context.Context, k int, table *nlr.Table) ([]nlr.Element, *nlr.Stack) {
	s := summarizers.Get().(*nlr.Summarizer)
	defer summarizers.Put(s)
	s.Reset(k, table)
	o.forEachEvent(ctx, func(fn uint32, kind trace.EventKind) {
		s.PushToken(o.voc.Token(fn, kind))
	})
	saved := s.Save()
	s.Finalize()
	return s.Elements(), saved
}

// refinalize is summarize against table without reading the events again:
// it finalizes the stack summarize saved, whose loop IDs must already be
// table's.
func refinalize(saved *nlr.Stack, table *nlr.Table) []nlr.Element {
	s := summarizers.Get().(*nlr.Summarizer)
	defer summarizers.Put(s)
	s.Restore(saved, table)
	s.Finalize()
	return s.Elements()
}

// summarizers recycles Summarizer buffers across objects and rounds;
// Elements and Save hand out copies, so nothing returned aliases them.
var summarizers = sync.Pool{New: func() any { return new(nlr.Summarizer) }}

// extractContext mines caller→callee attributes from the object's raw
// enter/exit stream through attr.ContextStream.
func (o object) extractContext(ctx context.Context, f attr.Freq) fca.AttrSet {
	cs := attr.NewContextStream()
	o.forEachEvent(ctx, func(fn uint32, kind trace.EventKind) {
		cs.Push(o.voc.Name(fn), kind)
	})
	return cs.ExtractIn(attr.NewInterner(), f)
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
			objs = append(objs, object{name: n})
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
	return diffnlr.Compute(id, n, f, r.LoopTable), nil
}
