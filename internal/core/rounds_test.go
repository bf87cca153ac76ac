package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"difftrace/internal/attr"
	"difftrace/internal/filter"
	"difftrace/internal/nlr"
	"difftrace/internal/parlot"
	"difftrace/internal/pool"
	"difftrace/internal/resilience"
	"difftrace/internal/resilience/chaos"
	"difftrace/internal/trace"
)

// Differential suite for the NLR rounds: Summarize, whose rounds after the
// first finalize each object's saved stack again, must give what the
// frozen oracle below gives — the rounds as they ran when every round read
// each object's events again. Test names match the Makefile determinism
// pattern, so the suite runs under `make determinism`.

// rereadAll is summarizeAll as it was when every round re-read the events.
// It is the oracle for the restored rounds: do not change it.
func rereadAll(ctx context.Context, levels []*levelRun, cfg Config, table *nlr.Table) error {
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
				elems[i] = o.reread(ctx, cfg.Filter.K, ov)
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
			return fmt.Errorf("core: summarize: %w", poolErr)
		}
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

// reread is object.summarize as it was before it saved its stack: it reads
// the object's events and summarizes them in full. Part of the oracle.
func (o object) reread(ctx context.Context, k int, table *nlr.Table) []nlr.Element {
	s := nlr.NewSummarizer(k, table)
	o.forEachEvent(ctx, func(fn uint32, kind trace.EventKind) {
		s.PushToken(o.voc.Token(fn, kind))
	})
	s.Finalize()
	return s.Elements()
}

// countingHook returns a stage hook that panics on the nth call for
// (stage, object) and on every later one, counting from 1 afresh for each
// hook made.
func countingHook(stage, object string, nth int) func(string, string) {
	var mu sync.Mutex
	calls := 0
	return func(st, obj string) {
		if st != stage || obj != object {
			return
		}
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n >= nth {
			panic(fmt.Sprintf("injected failure on call %d of %s %s", n, stage, object))
		}
	}
}

// matchesReread summarizes the pair through Summarize and through the
// oracle, at Workers 1 and 8, and fails t unless every object's sequence
// and failure, the loop tables (every body's Describe) and the reports
// analyzed from both, Degraded lists included, are identical. newHook, if
// not nil, makes a fresh stage hook for each summarization.
func matchesReread(t *testing.T, label string, normal, faulty Source, cfg Config, newHook func() func(string, string)) {
	t.Helper()
	if newHook != nil {
		t.Cleanup(func() { testStageHook = nil })
	}
	hook := func() {
		if newHook != nil {
			testStageHook = newHook()
		}
	}
	for _, w := range []int{1, 8} {
		cfg := cfg
		cfg.Workers = w
		what := fmt.Sprintf("%s workers=%d", label, w)
		hook()
		got, err := Summarize(nil, normal, faulty, cfg)
		if err != nil {
			t.Fatalf("%s: Summarize: %v", what, err)
		}
		hook()
		want := enterLevels(normal, faulty, cfg)
		if err := rereadAll(nil, want.levels, want.cfg, want.table); err != nil {
			t.Fatalf("%s: oracle: %v", what, err)
		}
		sameSummaries(t, what, got, want)
		gr, err := got.Analyze(nil, cfg.Attr, cfg.Linkage)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", what, err)
		}
		wr, err := want.Analyze(nil, cfg.Attr, cfg.Linkage)
		if err != nil {
			t.Fatalf("%s: oracle Analyze: %v", what, err)
		}
		if g, w := rendered(t, gr), rendered(t, wr); g != w {
			t.Fatalf("%s: reports differ\n--- restored ---\n%s\n--- re-read ---\n%s", what, g, w)
		}
	}
}

// sameSummaries compares two Summaries object by object and body by body.
func sameSummaries(t *testing.T, what string, got, want *Summaries) {
	t.Helper()
	if g, w := got.table.Len(), want.table.Len(); g != w {
		t.Fatalf("%s: loop table has %d bodies, oracle %d", what, g, w)
	}
	for id := 0; id < want.table.Len(); id++ {
		if g, w := got.table.Describe(id), want.table.Describe(id); g != w {
			t.Fatalf("%s: L%d = %s, oracle %s", what, id, g, w)
		}
	}
	for li, lv := range want.levels {
		glv := got.levels[li]
		if glv.dead != lv.dead || errText(glv.err) != errText(lv.err) {
			t.Fatalf("%s: %s entry: dead %v (%s), oracle %v (%s)", what, lv.stage, glv.dead, errText(glv.err), lv.dead, errText(lv.err))
		}
		for k, side := range lv.sides {
			gside := glv.sides[k]
			for i, o := range side.objs {
				obj := fmt.Sprintf("%s: %s %s object %s", what, lv.stage, side.name, o.name)
				if g, w := errText(gside.nlrErrs[i]), errText(side.nlrErrs[i]); g != w {
					t.Fatalf("%s: failure %q, oracle %q", obj, g, w)
				}
				if !reflect.DeepEqual(gside.elems[i], side.elems[i]) {
					t.Fatalf("%s: NLR\n  restored: %s\n  re-read:  %s", obj,
						strings.Join(nlr.Tokens(gside.elems[i]), " "), strings.Join(nlr.Tokens(side.elems[i]), " "))
				}
			}
		}
	}
}

func errText(e *resilience.StageError) string {
	if e == nil {
		return ""
	}
	return e.Error()
}

// sourcePair is one normal/faulty pair as one kind of Source.
type sourcePair struct {
	kind           string
	normal, faulty Source
}

// readBoth reads PLOT1 bytes once materialized and once compressed.
func readBoth(t *testing.T, nb, fb []byte, opts trace.ReadOptions) []sourcePair {
	t.Helper()
	m := sourcePair{kind: "materialized"}
	s := sourcePair{kind: "compressed"}
	mreg, sreg := trace.NewRegistry(), trace.NewRegistry()
	for i, b := range [][]byte{nb, fb} {
		set, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(b), mreg, opts)
		if err != nil {
			t.Fatalf("materialized read: %v", err)
		}
		ss, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(b), sreg, opts)
		if err != nil {
			t.Fatalf("compressed read: %v", err)
		}
		if i == 0 {
			m.normal, s.normal = set, ss
		} else {
			m.faulty, s.faulty = set, ss
		}
	}
	return []sourcePair{m, s}
}

// TestRestoredRoundsStreamPairsDeterminism: the source-independence
// battery's pairs — odd/even, loopy synthetic traces, a ghost union and
// every lenient chaos-corrupted PLOT1 — from materialized and compressed
// sources alike.
func TestRestoredRoundsStreamPairsDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	oddNormal := setBinary(t, collect(t, 8, reg, nil))
	oddFaulty := setBinary(t, collect(t, 8, reg, swapPlan()))
	ghostFaulty := setBinary(t, collect(t, 6, reg, swapPlan()))
	loopyNormal, loopyFaulty := loopySets(t)
	everything := Config{Filter: filter.Everything(), Attr: attr.Config{Kind: attr.Single, Freq: attr.Actual}, Linkage: DefaultConfig().Linkage}

	cases := []struct {
		name   string
		nb, fb []byte
		cfg    Config
	}{
		{"oddeven", oddNormal, oddFaulty, DefaultConfig()},
		{"oddeven-all-events", oddNormal, oddFaulty, everything},
		{"ghost", oddNormal, ghostFaulty, DefaultConfig()},
		{"loopy", loopyNormal, loopyFaulty, everything},
	}
	for _, c := range cases {
		for _, p := range readBoth(t, c.nb, c.fb, trace.ReadOptions{}) {
			matchesReread(t, c.name+" "+p.kind, p.normal, p.faulty, c.cfg, nil)
		}
	}

	lenient := trace.ReadOptions{Mode: trace.Lenient}
	resilient := DefaultConfig()
	resilient.Resilient = true
	for _, op := range chaos.Binary() {
		corrupted := op.Apply(oddFaulty, rand.New(rand.NewSource(42)))
		if _, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(corrupted), trace.NewRegistry(), lenient); err != nil {
			continue // unreadable even leniently: nothing to summarize
		}
		for _, p := range readBoth(t, oddNormal, corrupted, lenient) {
			matchesReread(t, op.Name+" "+p.kind, p.normal, p.faulty, resilient, nil)
		}
	}
}

// TestRestoredRoundsDivergenceFixtures: the three divergence fixture pairs
// under the filter specs their goldens use.
func TestRestoredRoundsDivergenceFixtures(t *testing.T) {
	for _, fx := range []struct{ name, spec string }{
		{"figure3", "11.mpiall.0K10"},
		{"ilcs", "11.plt.0K10"},
		{"lulesh", "11.plt.0K10"},
	} {
		reg := trace.NewRegistry()
		var pair [2]Source
		for i, side := range []string{"normal", "faulty"} {
			raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "divergence", fx.name+"_"+side+".trace"))
			if err != nil {
				t.Fatal(err)
			}
			if pair[i], _, err = ReadSource(nil, bytes.NewReader(raw), reg, trace.ReadOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		flt, err := filter.ParseSpec(fx.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Filter = flt
		matchesReread(t, fx.name, pair[0], pair[1], cfg, nil)
	}
}

// TestRestoredRoundsResilientDeterminism: Resilient runs whose stage hook
// fails one object's NLR in every round, only in its second round, or a
// whole level's entry. A later round must fire the object's stage as the
// re-reading rounds did, so the second-round failure degrades the same
// object.
func TestRestoredRoundsResilientDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	cfg := DefaultConfig()
	cfg.Resilient = true
	hooks := []struct {
		name       string
		stage, obj string
		nth        int
	}{
		{"nlr-every-round", "thread level/normal/nlr", "3.0", 1},
		{"nlr-second-round", "process level/faulty/nlr", "5", 2},
		{"level", "thread level", "", 1},
	}
	for _, h := range hooks {
		h := h
		newHook := func() func(string, string) { return countingHook(h.stage, h.obj, h.nth) }
		matchesReread(t, h.name, normal, faulty, cfg, newHook)

		// The hook must have fired: the run degrades exactly that stage.
		testStageHook = newHook()
		rep, err := DiffRun(normal, faulty, cfg)
		testStageHook = nil
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Degraded) == 0 || rep.Degraded[0].Stage != h.stage || rep.Degraded[0].Object != h.obj {
			t.Fatalf("%s: Degraded = %v, want %s %s", h.name, rep.Degraded, h.stage, h.obj)
		}
	}
}
