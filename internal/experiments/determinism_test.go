package experiments

import (
	"reflect"
	"sync"
	"testing"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/faults"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

// The differential determinism suite: every experiment workload family is
// pushed through the pipeline at Workers:1 and Workers:8 and the reports
// must be deep-equal — NLR sequences, loop-table IDs, JSM values, suspect
// ranking, rendered tables. Run under -race (make determinism) to also
// prove the parallel path is well-synchronized.

// pair is one normal/faulty workload, built once and shared by both runs.
type pair struct {
	once           sync.Once
	build          func() (*trace.TraceSet, *trace.TraceSet, error)
	normal, faulty *trace.TraceSet
	err            error
}

func (p *pair) get(t *testing.T) (*trace.TraceSet, *trace.TraceSet) {
	t.Helper()
	p.once.Do(func() { p.normal, p.faulty, p.err = p.build() })
	if p.err != nil {
		t.Fatal(p.err)
	}
	return p.normal, p.faulty
}

var (
	oddEven4Pair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runOddEven(reg, 4, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runOddEven(reg, 4, nil)
		return n, f, err
	}}
	oddEvenSwapPair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runOddEven(reg, 16, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runOddEven(reg, 16, swapBugPlan)
		return n, f, err
	}}
	oddEvenDlPair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runOddEven(reg, 16, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runOddEven(reg, 16, dlBugPlan)
		return n, f, err
	}}
	ilcsOmpPair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runILCS(reg, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runILCS(reg, ompBugPlan)
		return n, f, err
	}}
	ilcsWrongSizePair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runILCS(reg, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runILCS(reg, wrongSizePlan)
		return n, f, err
	}}
	ilcsWrongOpPair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runILCSHard(reg, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runILCSHard(reg, wrongOpPlan)
		return n, f, err
	}}
	luleshPair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runLULESH(reg, nil, 6, 11, 2)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runLULESH(reg, skipLeapFrogPlan, 6, 11, 2)
		return n, f, err
	}}
	progressPair = &pair{build: func() (*trace.TraceSet, *trace.TraceSet, error) {
		reg := trace.NewRegistry()
		n, _, err := runOddEven(reg, 8, nil)
		if err != nil {
			return nil, nil, err
		}
		f, _, err := runOddEven(reg, 8, faults.NewPlan(faults.Fault{
			Kind: faults.DeadlockStop, Process: 3, Thread: -1, AfterIteration: 4,
		}))
		return n, f, err
	}}
)

// assertReportsEqual deep-compares two DiffRun reports modulo Cfg (the
// Workers knob is the only intended difference).
func assertReportsEqual(t *testing.T, label string, a, b *core.Report) {
	t.Helper()
	ca, cb := *a, *b
	ca.Cfg, cb.Cfg = core.Config{}, core.Config{}
	if ca.LoopTable.Len() != cb.LoopTable.Len() {
		t.Fatalf("%s: loop tables differ in size: %d vs %d", label, ca.LoopTable.Len(), cb.LoopTable.Len())
	}
	for id := 0; id < ca.LoopTable.Len(); id++ {
		if ca.LoopTable.Describe(id) != cb.LoopTable.Describe(id) {
			t.Fatalf("%s: loop L%d differs: %s vs %s",
				label, id, ca.LoopTable.Describe(id), cb.LoopTable.Describe(id))
		}
	}
	for _, lv := range []struct {
		name string
		a, b *core.Level
	}{{"threads", ca.Threads, cb.Threads}, {"processes", ca.Processes, cb.Processes}} {
		if !reflect.DeepEqual(lv.a.Suspects, lv.b.Suspects) {
			t.Fatalf("%s: %s suspect ranking differs:\n%v\nvs\n%v",
				label, lv.name, lv.a.Suspects, lv.b.Suspects)
		}
		if !reflect.DeepEqual(lv.a.JSMD, lv.b.JSMD) {
			t.Fatalf("%s: %s JSM_D values differ", label, lv.name)
		}
		if !reflect.DeepEqual(lv.a.Normal, lv.b.Normal) || !reflect.DeepEqual(lv.a.Faulty, lv.b.Faulty) {
			t.Fatalf("%s: %s analyses differ (NLR/attrs/JSM/lattice)", label, lv.name)
		}
		if lv.a.BScore != lv.b.BScore {
			t.Fatalf("%s: %s B-score %v vs %v", label, lv.name, lv.a.BScore, lv.b.BScore)
		}
	}
	if !reflect.DeepEqual(ca.Degraded, cb.Degraded) {
		t.Fatalf("%s: degraded accounting differs", label)
	}
	if !reflect.DeepEqual(&ca, &cb) {
		t.Fatalf("%s: reports differ structurally", label)
	}
}

// runBoth executes one DiffRun config at Workers:1 and Workers:8.
func runBoth(t *testing.T, label string, p *pair, cfg core.Config) {
	t.Helper()
	normal, faulty := p.get(t)
	cfg.Workers = 1
	seq, err := core.DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatalf("%s (Workers 1): %v", label, err)
	}
	cfg.Workers = 8
	par, err := core.DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatalf("%s (Workers 8): %v", label, err)
	}
	assertReportsEqual(t, label, seq, par)
}

// TestDiffRunDeterminism covers the DiffRun-based experiments: the odd/even
// pedagogy workload (Tables II–IV, Figures 3–6), the baselines/classify
// extensions, and the lattice route.
func TestDiffRunDeterminism(t *testing.T) {
	singActual := core.DefaultConfig()
	singActual.Attr = attr.Config{Kind: attr.Single, Freq: attr.Actual}
	lattice := core.DefaultConfig()
	lattice.BuildLattices = true

	runBoth(t, "tableII-IV/fig3-4 (oddeven 4)", oddEven4Pair, core.DefaultConfig())
	runBoth(t, "fig5 (swapBug)", oddEvenSwapPair, singActual)
	runBoth(t, "fig5 lattice route", oddEvenSwapPair, lattice)
	runBoth(t, "fig6 (dlBug)", oddEvenDlPair, singActual)
	runBoth(t, "progress-dlbug cascade", progressPair, core.DefaultConfig())
}

// TestDiffRunDeterminismILCSAndLULESH covers the §IV/§V application
// workloads at the DiffRun level, including the doub attribute family.
func TestDiffRunDeterminismILCSAndLULESH(t *testing.T) {
	if testing.Short() {
		t.Skip("application workloads are slow; run without -short")
	}
	doubLog := core.DefaultConfig()
	doubLog.Attr = attr.Config{Kind: attr.Double, Freq: attr.Log10}

	runBoth(t, "tableVI workload (ompBug)", ilcsOmpPair, core.DefaultConfig())
	runBoth(t, "tableVII workload (wrongSize)", ilcsWrongSizePair, doubLog)
	runBoth(t, "tableIX workload (skipLeapFrog)", luleshPair, core.DefaultConfig())
}

// sweepBoth runs one ranking sweep at Workers:1 and Workers:8 and compares
// rows and rendered bytes.
func sweepBoth(t *testing.T, label string, p *pair, req rank.Request) {
	t.Helper()
	normal, faulty := p.get(t)
	req.Workers = 1
	seq, err := rank.SweepContext(nil, normal, faulty, req)
	if err != nil {
		t.Fatalf("%s (Workers 1): %v", label, err)
	}
	req.Workers = 8
	par, err := rank.SweepContext(nil, normal, faulty, req)
	if err != nil {
		t.Fatalf("%s (Workers 8): %v", label, err)
	}
	assertTablesEqual(t, label, seq, par)
}

func assertTablesEqual(t *testing.T, label string, a, b *rank.Table) {
	t.Helper()
	if got, want := a.Render(), b.Render(); got != want {
		t.Fatalf("%s: rendered tables differ:\n%s\nvs\n%s", label, want, got)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts differ: %d vs %d", label, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.Spec != rb.Spec || ra.Attr != rb.Attr || ra.BScore != rb.BScore {
			t.Fatalf("%s: row %d differs: %+v vs %+v", label, i, ra, rb)
		}
		if !reflect.DeepEqual(ra.TopProcesses, rb.TopProcesses) || !reflect.DeepEqual(ra.TopThreads, rb.TopThreads) {
			t.Fatalf("%s: row %d suspects differ", label, i)
		}
		assertReportsEqual(t, label, ra.Report, rb.Report)
	}
}

// TestSweepDeterminism covers the ranking-table experiments (Tables VI–IX):
// every sweep row, including its full drill-down report, must be identical
// for any intra-run worker count.
func TestSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("ranking sweeps are slow; run without -short")
	}
	sweepBoth(t, "tableVI (ompBug)", ilcsOmpPair, rank.Request{
		Specs: ompBugSpecs, CustomPatterns: ilcsCustom, Linkage: cluster.Ward,
	})
	sweepBoth(t, "tableVII (wrongSize)", ilcsWrongSizePair, rank.Request{
		Specs: mpiBugSpecs, CustomPatterns: ilcsCustom, Linkage: cluster.Ward,
	})
	sweepBoth(t, "tableIX (LULESH)", luleshPair, rank.Request{
		Specs: []string{"11.1K10", "01.1K10"}, Linkage: cluster.Ward,
	})
}

// TestTableVIIIDeterminism exercises the hardest workload (§IV-D wrong-op,
// 100-city ILCS) separately so -short can skip it.
func TestTableVIIIDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("hard ILCS instance is slow; run without -short")
	}
	sweepBoth(t, "tableVIII (wrongOp)", ilcsWrongOpPair, rank.Request{
		Specs: wrongOpSpecs, CustomPatterns: ilcsCustom, Linkage: cluster.Ward,
	})
}

// TestSweepParallelAndWorkers: a sweep whose runs use eight workers builds
// the same table as a sequential one — the sweep check that also runs
// under -short.
func TestSweepParallelAndWorkers(t *testing.T) {
	sweepBoth(t, "oddeven swapBug sweep", oddEvenSwapPair, rank.Request{
		Specs: []string{"11.mpiall.0K10", "11.mpi.0K10"}, Linkage: cluster.Ward,
	})
}
