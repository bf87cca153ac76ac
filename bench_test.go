// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the artifact each iteration), plus ablation
// benchmarks for the design choices DESIGN.md calls out. Workload traces
// are collected once per process in lazy setup so the benchmarks time the
// *analysis*, not the trace collection — except the collection benchmarks,
// which time exactly that.
//
//	go test -bench=. -benchmem
package difftrace_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"difftrace/internal/apps/ilcs"
	"difftrace/internal/apps/lulesh"
	"difftrace/internal/apps/oddeven"
	"difftrace/internal/attr"
	"difftrace/internal/automaded"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/experiments"
	"difftrace/internal/faults"
	"difftrace/internal/fca"
	"difftrace/internal/filter"
	"difftrace/internal/jaccard"
	"difftrace/internal/mpi"
	"difftrace/internal/nlr"
	"difftrace/internal/otf"
	"difftrace/internal/parlot"
	"difftrace/internal/progress"
	"difftrace/internal/rank"
	"difftrace/internal/stat"
	"difftrace/internal/synth"
	"difftrace/internal/trace"
)

// ---- lazy shared workloads ----------------------------------------------

type tracePair struct {
	normal, faulty *trace.TraceSet
}

var (
	onceOddEven sync.Once
	oddEvenPair tracePair
	onceILCS    sync.Once
	ilcsPairs   map[string]tracePair
	onceLULESH  sync.Once
	luleshPair  tracePair
	onceSynth   sync.Once
	synthPair   tracePair
)

func oddEvenSets(b *testing.B) tracePair {
	b.Helper()
	onceOddEven.Do(func() {
		reg := trace.NewRegistry()
		run := func(p *faults.Plan) *trace.TraceSet {
			tr := parlot.NewTracerWith(parlot.MainImage, reg)
			if _, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: p, Tracer: tr}); err != nil {
				b.Fatal(err)
			}
			return tr.Collect()
		}
		swap, _ := faults.Named("swapBug")
		oddEvenPair = tracePair{normal: run(nil), faulty: run(swap)}
	})
	return oddEvenPair
}

func ilcsSets(b *testing.B, fault string) tracePair {
	b.Helper()
	onceILCS.Do(func() {
		ilcsPairs = map[string]tracePair{}
		reg := trace.NewRegistry()
		run := func(p *faults.Plan) *trace.TraceSet {
			tr := parlot.NewTracerWith(parlot.MainImage, reg)
			if _, err := ilcs.Run(ilcs.Config{
				Procs: 8, Workers: 4, Cities: 12, Seed: 11,
				StableRounds: 2, MaxRounds: 10, Plan: p, Tracer: tr,
			}); err != nil {
				b.Fatal(err)
			}
			return tr.Collect()
		}
		normal := run(nil)
		for _, f := range []string{"ompBug", "wrongSize", "wrongOp"} {
			plan, _ := faults.Named(f)
			ilcsPairs[f] = tracePair{normal: normal, faulty: run(plan)}
		}
	})
	return ilcsPairs[fault]
}

func luleshSets(b *testing.B) tracePair {
	b.Helper()
	onceLULESH.Do(func() {
		reg := trace.NewRegistry()
		run := func(p *faults.Plan) *trace.TraceSet {
			tr := parlot.NewTracerWith(parlot.MainImage, reg)
			if _, err := lulesh.Run(lulesh.Config{
				Procs: 8, Threads: 4, EdgeElems: 6, Regions: 11, Cycles: 2,
				Plan: p, Tracer: tr,
			}); err != nil {
				b.Fatal(err)
			}
			return tr.Collect()
		}
		skip, _ := faults.Named("skipLeapFrog")
		luleshPair = tracePair{normal: run(nil), faulty: run(skip)}
	})
	return luleshPair
}

// synthSets builds the LULESH-scale synthetic pair: 8 processes × 11
// threads per side (the §V geometry) of loop-nest traces with per-thread
// noise seeds. The faulty side perturbs process 5 — longer second loop,
// noisier bodies, and one truncated thread — so the diff pipeline has real
// work at both levels.
func synthSets(b *testing.B) tracePair {
	b.Helper()
	onceSynth.Do(func() {
		reg := trace.NewRegistry()
		build := func(faulty bool) *trace.TraceSet {
			set := trace.NewTraceSetWith(reg)
			for p := 0; p < 8; p++ {
				for t := 0; t < 11; t++ {
					cfg := synth.Config{
						Prologue: 3, Epilogue: 2,
						Loops: []synth.LoopSpec{
							{Body: 6, Iterations: 40, Nested: &synth.LoopSpec{Body: 3, Iterations: 8}},
							{Body: 4, Iterations: 60},
						},
						NoiseRate: 0.02, NoisePool: 24,
						Seed: int64(1000*p + t),
					}
					if faulty && p == 5 {
						cfg.Loops[1].Iterations = 90
						cfg.NoiseRate = 0.10
						if t == 3 {
							cfg.TruncateAfter = 400
						}
					}
					synth.Generate(set, trace.TID(p, t), cfg)
				}
			}
			return set
		}
		synthPair = tracePair{normal: build(false), faulty: build(true)}
	})
	return synthPair
}

// ---- per-table / per-figure benchmarks ----------------------------------

// BenchmarkTableII_TraceCollection times the Table II workload end to end:
// running the 4-rank odd/even sort under the tracing substrate.
func BenchmarkTableII_TraceCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := parlot.NewTracer(parlot.MainImage)
		if _, err := oddeven.Run(oddeven.Config{Procs: 4, Seed: 5, Tracer: tr}); err != nil {
			b.Fatal(err)
		}
		if tr.Collect().TotalEvents() == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkTableIII_NLR times the NLR summarization of Table III.
func BenchmarkTableIII_NLR(b *testing.B) {
	pair := oddEvenSets(b)
	set := filter.New(filter.MPIAll).ApplySet(pair.normal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nlr.SummarizeSet(set, 10, nlr.NewTable())
	}
}

// BenchmarkFig3_Lattice times incremental concept-lattice construction on
// the Table IV context.
func BenchmarkFig3_Lattice(b *testing.B) {
	pair := oddEvenSets(b)
	set := filter.New(filter.MPIAll).ApplySet(pair.normal)
	sums := nlr.SummarizeSet(set, 10, nlr.NewTable())
	cfg := attr.Config{Kind: attr.Single, Freq: attr.NoFreq}
	in := attr.NewInterner() // shared IDs: lattice runs on the popcount fast path
	attrs := map[string]fca.AttrSet{}
	for id, elems := range sums {
		attrs[id.String()] = attr.ExtractIn(in, elems, cfg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fca.NewLattice()
		for name, a := range attrs {
			l.AddObject(name, a)
		}
		if l.Size() == 0 {
			b.Fatal("empty lattice")
		}
	}
}

// BenchmarkFig4_JSM times the pairwise Jaccard matrix of Figure 4: the
// paper's 16-rank odd/even context, plus a worker sweep over the
// LULESH-scale synthetic context (88 objects) exercising the row-block
// parallel construction.
func BenchmarkFig4_JSM(b *testing.B) {
	buildAttrs := func(set *trace.TraceSet, cfg attr.Config) map[string]fca.AttrSet {
		sums := nlr.SummarizeSet(set, 10, nlr.NewTable())
		in := attr.NewInterner() // shared IDs: JSM cells are popcounts
		attrs := map[string]fca.AttrSet{}
		for id, elems := range sums {
			attrs[id.String()] = attr.ExtractIn(in, elems, cfg)
		}
		return attrs
	}

	pair := oddEvenSets(b)
	attrs := buildAttrs(filter.New(filter.MPIAll).ApplySet(pair.normal),
		attr.Config{Kind: attr.Single, Freq: attr.NoFreq})
	b.Run("oddeven16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if jaccard.New(attrs).Size() == 0 {
				b.Fatal("empty JSM")
			}
		}
	})

	sp := synthSets(b)
	sattrs := buildAttrs(filter.Everything().ApplySet(sp.normal),
		attr.Config{Kind: attr.Double, Freq: attr.Actual})
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run("synth88/"+benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if jaccard.NewParallelObserved(sattrs, w, nil).Size() == 0 {
					b.Fatal("empty JSM")
				}
			}
		})
	}
}

// BenchmarkFig5_DiffNLR times the full §II-G swapBug comparison (pipeline +
// diffNLR of the flagged trace).
func BenchmarkFig5_DiffNLR(b *testing.B) {
	pair := oddEvenSets(b)
	cfg := core.DefaultConfig()
	cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.DiffRun(pair.normal, pair.faulty, cfg)
		if err != nil {
			b.Fatal(err)
		}
		d, err := rep.DiffNLR(rep.Threads, "5.0")
		if err != nil || d.Identical() {
			b.Fatal("diffNLR failed")
		}
	}
}

// BenchmarkFig6_Deadlock times the dlBug run itself: the cost of detecting
// an actual deadlock and truncating 16 ranks' traces.
func BenchmarkFig6_Deadlock(b *testing.B) {
	plan, _ := faults.Named("dlBug")
	for i := 0; i < b.N; i++ {
		tr := parlot.NewTracer(parlot.MainImage)
		res, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: plan, Tracer: tr})
		if err != nil || !res.Deadlocked {
			b.Fatal("expected deadlock")
		}
	}
}

func benchRankingSweep(b *testing.B, pair tracePair, specs []string, custom []string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := rank.SweepContext(nil, pair.normal, pair.faulty, rank.Request{
			Specs:          specs,
			CustomPatterns: custom,
			Linkage:        cluster.Ward,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableVI_RankingOMP regenerates the §IV-B ranking table.
func BenchmarkTableVI_RankingOMP(b *testing.B) {
	pair := ilcsSets(b, "ompBug")
	benchRankingSweep(b, pair,
		[]string{"11.plt.mem.cust.0K10", "11.mem.ompcrit.cust.0K10"}, []string{"^CPU_"})
}

// BenchmarkTableVII_RankingDeadlock regenerates the §IV-C ranking table.
func BenchmarkTableVII_RankingDeadlock(b *testing.B) {
	pair := ilcsSets(b, "wrongSize")
	benchRankingSweep(b, pair,
		[]string{"11.mpi.cust.0K10", "11.mpicol.cust.0K10"}, []string{"^CPU_"})
}

// BenchmarkTableVIII_RankingWrongOp regenerates the §IV-D ranking table.
func BenchmarkTableVIII_RankingWrongOp(b *testing.B) {
	pair := ilcsSets(b, "wrongOp")
	benchRankingSweep(b, pair,
		[]string{"11.plt.cust.0K10", "11.mpi.cust.0K10"}, []string{"^CPU_"})
}

// BenchmarkTableIX_RankingLULESH regenerates the §V ranking table.
func BenchmarkTableIX_RankingLULESH(b *testing.B) {
	pair := luleshSets(b)
	benchRankingSweep(b, pair, []string{"11.1K10", "01.1K10"}, nil)
}

// BenchmarkFig7_DiffNLRs regenerates the three Figure 7 diffNLR views from
// precollected ILCS traces.
func BenchmarkFig7_DiffNLRs(b *testing.B) {
	pairA := ilcsSets(b, "ompBug")
	fltA, _ := filter.ParseSpec("11.mem.ompcrit.cust.0K10", "^CPU_")
	cfg := core.Config{Filter: fltA, Attr: attr.Config{Kind: attr.Single, Freq: attr.NoFreq}, Linkage: cluster.Ward}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.DiffRun(pairA.normal, pairA.faulty, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rep.DiffNLR(rep.Threads, "6.4"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLULESH_Stats times the §V statistics computation (NLR reduction
// at K=10 over the LULESH process traces).
func BenchmarkLULESH_Stats(b *testing.B) {
	pair := luleshSets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := nlr.NewTable()
		for _, p := range pair.normal.Processes() {
			tr := pair.normal.ProcessTrace(p)
			nlr.SummarizeTrace(tr, pair.normal.Registry, 10, tbl)
		}
	}
}

// BenchmarkParLOT_Compression times the incremental compressor on a
// loop-dominated million-event stream (the [4] headline workload).
func BenchmarkParLOT_Compression(b *testing.B) {
	b.SetBytes(4 * 1_000_000)
	for i := 0; i < b.N; i++ {
		enc := parlot.NewEncoder(io.Discard)
		for j := 0; j < 1_000_000; j++ {
			enc.Encode(uint32(j % 6))
		}
		if err := enc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperiment_TableII runs the full experiment harness path for one
// cheap experiment (artifact rendering included).
func BenchmarkExperiment_TableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		out, err := experiments.TableII(&buf)
		if err != nil || !out.Pass {
			b.Fatal(err, out)
		}
	}
}

// ---- ablation benchmarks --------------------------------------------------

// BenchmarkAblation_GodinVsNextClosure compares incremental (Godin) against
// batch (Ganter NextClosure) lattice construction on the same contexts —
// the §III-B design choice.
func BenchmarkAblation_GodinVsNextClosure(b *testing.B) {
	pair := ilcsSets(b, "ompBug")
	flt, _ := filter.ParseSpec("11.mem.ompcrit.cust.0K10", "^CPU_")
	set := flt.ApplySet(pair.normal)
	sums := nlr.SummarizeSet(set, 10, nlr.NewTable())
	cfg := attr.Config{Kind: attr.Double, Freq: attr.NoFreq}
	in := attr.NewInterner() // shared IDs for both construction strategies
	attrs := map[string]fca.AttrSet{}
	for id, elems := range sums {
		attrs[id.String()] = attr.ExtractIn(in, elems, cfg)
	}
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}

	b.Run("godin-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := fca.NewLattice()
			for _, n := range names {
				l.AddObject(n, attrs[n])
			}
		}
	})
	b.Run("ganter-nextclosure", func(b *testing.B) {
		ctx := fca.NewContext()
		for _, n := range names {
			ctx.AddObject(n, attrs[n])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(fca.NextClosure(ctx)) == 0 {
				b.Fatal("no concepts")
			}
		}
	})
}

// BenchmarkAblation_NLRK sweeps the NLR window constant (§V reports the
// K=10 vs K=50 trade-off).
func BenchmarkAblation_NLRK(b *testing.B) {
	pair := luleshSets(b)
	tr := pair.normal.ProcessTrace(0)
	for _, k := range []int{5, 10, 25, 50} {
		b.Run(benchName("K", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nlr.SummarizeTrace(tr, pair.normal.Registry, k, nlr.NewTable())
			}
		})
	}
}

// BenchmarkAblation_Linkage sweeps the seven linkage methods (§II-F knob 1).
func BenchmarkAblation_Linkage(b *testing.B) {
	pair := oddEvenSets(b)
	for _, m := range cluster.AllMethods() {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Linkage = m
			for i := 0; i < b.N; i++ {
				if _, err := core.DiffRun(pair.normal, pair.faulty, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Attributes sweeps the six Table V attribute configs
// (§II-F knob 2).
func BenchmarkAblation_Attributes(b *testing.B) {
	pair := oddEvenSets(b)
	for _, ac := range attr.AllConfigs() {
		ac := ac
		b.Run(ac.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Attr = ac
			for i := 0; i < b.N; i++ {
				if _, err := core.DiffRun(pair.normal, pair.faulty, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_JSMSource compares deriving the JSM directly from
// object intents against deriving it from the built concept lattice.
func BenchmarkAblation_JSMSource(b *testing.B) {
	pair := oddEvenSets(b)
	for _, lattices := range []bool{false, true} {
		name := "direct-intents"
		if lattices {
			name = "via-lattice"
		}
		lattices := lattices
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.BuildLattices = lattices
			for i := 0; i < b.N; i++ {
				if _, err := core.DiffRun(pair.normal, pair.faulty, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_STATvsDiffTrace compares the STAT-style prefix-tree
// baseline against the full DiffTrace pipeline on the same deadlocked
// traces (the §VI positioning: STAT is far cheaper but coarser).
func BenchmarkAblation_STATvsDiffTrace(b *testing.B) {
	reg := trace.NewRegistry()
	run := func(p *faults.Plan) *trace.TraceSet {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		if _, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: p, Tracer: tr}); err != nil {
			b.Fatal(err)
		}
		return tr.Collect()
	}
	normal := run(nil)
	plan, _ := faults.Named("dlBug")
	faulty := run(plan)

	b.Run("stat-prefix-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(stat.Build(faulty).Classes()) == 0 {
				b.Fatal("no classes")
			}
		}
	})
	b.Run("difftrace-pipeline", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
		for i := 0; i < b.N; i++ {
			if _, err := core.DiffRun(normal, faulty, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("progress-measure", func(b *testing.B) {
		flt := filter.New(filter.MPIAll)
		fn := flt.ApplySet(normal)
		ff := flt.ApplySet(faulty)
		for i := 0; i < b.N; i++ {
			if len(progress.Analyze(fn, ff, 10).Tasks) == 0 {
				b.Fatal("no tasks")
			}
		}
	})
}

// BenchmarkAblation_ParallelSweep measures the ranking sweep with one
// worker per run vs four (paper future-work item 1).
func BenchmarkAblation_ParallelSweep(b *testing.B) {
	pair := oddEvenSets(b)
	for _, w := range []int{1, 4} {
		req := rank.Request{
			Specs:   []string{"11.mpiall.0K10", "11.mpisr.0K10"},
			Linkage: cluster.Ward,
			Workers: w,
		}
		b.Run(benchName("workers", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rank.SweepContext(nil, pair.normal, pair.faulty, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOTFClockOverhead measures the logical-clock recording cost on a
// clocked vs unclocked run (future-work item 2's overhead question).
func BenchmarkOTFClockOverhead(b *testing.B) {
	body := func(r *mpi.Rank) error {
		for i := 0; i < 50; i++ {
			if _, err := r.Allreduce([]float64{1}, mpi.SUM); err != nil {
				return err
			}
		}
		return r.Finalize()
	}
	b.Run("unclocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := mpi.Run(4, 16, nil, body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := mpi.NewWorld(4, 16)
			w.AttachClock(otf.NewLog(4))
			if err := w.Run(nil, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScaling_NLRInputSize verifies the Θ(K²N) claim's N term: fixed
// K, growing synthetic traces.
func BenchmarkScaling_NLRInputSize(b *testing.B) {
	for _, n := range []int{1_000, 4_000, 16_000} {
		cfg := synth.Config{Loops: []synth.LoopSpec{{Body: 4, Iterations: n / 4}}}
		toks := synth.Tokens(cfg)
		b.Run(benchName("N", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nlr.Summarize(toks, 10, nlr.NewTable())
			}
		})
	}
}

// BenchmarkScaling_CompressorNoise measures compression throughput and
// ratio across loop-regularity levels (noise breaks the FCM predictor).
func BenchmarkScaling_CompressorNoise(b *testing.B) {
	for _, noise := range []int{0, 10, 30} {
		cfg := synth.Config{
			Loops:     []synth.LoopSpec{{Body: 6, Iterations: 20_000}},
			NoiseRate: float64(noise) / 100, NoisePool: 32, Seed: 7,
		}
		set := trace.NewTraceSet()
		tr := synth.Generate(set, trace.TID(0, 0), cfg)
		b.Run(benchName("noisePct", noise), func(b *testing.B) {
			b.SetBytes(int64(4 * tr.Len()))
			for i := 0; i < b.N; i++ {
				enc := parlot.NewEncoder(io.Discard)
				for _, e := range tr.Events {
					enc.Encode(e.Func)
				}
				if err := enc.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_AutomaDeDVsDiffTrace compares the single-run
// semi-Markov baseline against the relative pipeline on the same traces
// (§VI positioning: AutomaDeD needs no reference run but sees less).
func BenchmarkAblation_AutomaDeDVsDiffTrace(b *testing.B) {
	pair := oddEvenSets(b)
	flt := filter.New(filter.MPIAll)
	faultySet := flt.ApplySet(pair.faulty)
	b.Run("automaded-single-run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(automaded.Analyze(faultySet).Tasks) == 0 {
				b.Fatal("no tasks")
			}
		}
	})
	b.Run("difftrace-relative", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
		for i := 0; i < b.N; i++ {
			if _, err := core.DiffRun(pair.normal, pair.faulty, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
