package core

import (
	"strings"
	"testing"

	"difftrace/internal/trace"
)

// withHook installs a stage hook for the test and restores nil afterwards.
func withHook(t *testing.T, hook func(stage, object string)) {
	t.Helper()
	testStageHook = hook
	t.Cleanup(func() { testStageHook = nil })
}

// TestResilientObjectPanicIsolated: a panic while summarizing one object
// skips that object on both sides, records StageErrors, and the remaining
// traces still produce a ranking.
func TestResilientObjectPanicIsolated(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	withHook(t, func(stage, object string) {
		if object == "3.0" && strings.Contains(stage, "/nlr") {
			panic("injected NLR blow-up")
		}
	})
	cfg := DefaultConfig()
	cfg.Resilient = true
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatalf("resilient DiffRun: %v", err)
	}
	if len(rep.Degraded) == 0 {
		t.Fatal("no StageErrors recorded for the injected panic")
	}
	for _, e := range rep.Degraded {
		if e.Object != "3.0" {
			t.Errorf("unexpected degraded object %q (stage %s)", e.Object, e.Stage)
		}
		if !strings.Contains(e.Error(), "injected NLR blow-up") {
			t.Errorf("StageError lost the panic message: %v", e)
		}
	}
	// The poisoned object is gone from both sides; everyone else survived.
	for _, a := range []*Analysis{rep.Threads.Normal, rep.Threads.Faulty} {
		if _, ok := a.NLR["3.0"]; ok {
			t.Error("skipped object 3.0 still present in NLR map")
		}
		if _, ok := a.Attrs["3.0"]; ok {
			t.Error("skipped object 3.0 still present in attribute map")
		}
	}
	if n := len(rep.Threads.Normal.JSM.Names); n != 7 {
		t.Errorf("thread JSM has %d objects, want 7 (8 threads minus the skipped one)", n)
	}
	if len(rep.Threads.Suspects) == 0 {
		t.Error("no thread-level suspects despite a real fault in the surviving traces")
	}
	if top := rep.Threads.Suspects[0].Name; top != "5.0" {
		t.Errorf("top suspect = %s, want 5.0 (swap bug must still be found)", top)
	}
	// Process level was untouched by the hook.
	if top := rep.Processes.Suspects[0].Name; top != "5" {
		t.Errorf("top process suspect = %s, want 5", top)
	}
}

// TestResilientLevelFailureDegrades: a panic covering a whole level yields
// an empty placeholder Level while the other level still works.
func TestResilientLevelFailureDegrades(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	withHook(t, func(stage, object string) {
		if stage == "process level" && object == "" {
			panic("injected level failure")
		}
	})
	cfg := DefaultConfig()
	cfg.Resilient = true
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatalf("resilient DiffRun: %v", err)
	}
	if top := rep.Threads.Suspects[0].Name; top != "5.0" {
		t.Errorf("healthy thread level: top suspect = %s, want 5.0", top)
	}
	if len(rep.Degraded) != 1 || rep.Degraded[0].Stage != "process level" {
		t.Fatalf("Degraded = %v, want one process-level StageError", rep.Degraded)
	}
	// The placeholder must be renderable: non-nil analyses, empty matrices.
	p := rep.Processes
	if p == nil || p.Normal == nil || p.Faulty == nil || p.JSMD == nil {
		t.Fatal("degraded level has nil components")
	}
	if len(p.Normal.JSM.Names) != 0 || len(p.Suspects) != 0 {
		t.Errorf("degraded level is not empty: %d names, %d suspects",
			len(p.Normal.JSM.Names), len(p.Suspects))
	}
}

// TestNonResilientPanicPropagates: without Resilient the same injected
// panic escapes DiffRun unchanged — historical behavior is preserved.
func TestNonResilientPanicPropagates(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 4, reg, nil)
	faulty := collect(t, 4, reg, swapPlan())
	withHook(t, func(stage, object string) {
		if object == "1.0" && strings.Contains(stage, "/nlr") {
			panic("injected NLR blow-up")
		}
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("non-resilient DiffRun swallowed the panic")
		}
	}()
	_, _ = DiffRun(normal, faulty, DefaultConfig())
}

// TestResilientHealthyRunMatchesStrict: with no failures, Resilient mode
// produces the identical ranking and records nothing.
func TestResilientHealthyRunMatchesStrict(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	plain, err := DiffRun(normal, faulty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Resilient = true
	res, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 0 {
		t.Errorf("healthy resilient run recorded %v", res.Degraded)
	}
	if len(plain.Threads.Suspects) != len(res.Threads.Suspects) {
		t.Fatalf("suspect counts differ: %d vs %d",
			len(plain.Threads.Suspects), len(res.Threads.Suspects))
	}
	for i := range plain.Threads.Suspects {
		if plain.Threads.Suspects[i] != res.Threads.Suspects[i] {
			t.Errorf("suspect %d differs: %v vs %v",
				i, plain.Threads.Suspects[i], res.Threads.Suspects[i])
		}
	}
}

// TestResilientEmptySets: diffing two empty trace sets degrades gracefully
// instead of erroring or panicking.
func TestResilientEmptySets(t *testing.T) {
	reg := trace.NewRegistry()
	empty1 := trace.NewTraceSetWith(reg)
	empty2 := trace.NewTraceSetWith(reg)
	cfg := DefaultConfig()
	cfg.Resilient = true
	rep, err := DiffRun(empty1, empty2, cfg)
	if err != nil {
		t.Fatalf("DiffRun on empty sets: %v", err)
	}
	if rep.Threads == nil || rep.Processes == nil {
		t.Fatal("nil level for empty input")
	}
	if len(rep.Threads.Suspects) != 0 {
		t.Errorf("empty input produced suspects: %v", rep.Threads.Suspects)
	}
}

// TestResilientDivergencePanicRendered: a panic in one object's divergence
// walk skips that object under Resilient, and the rendered table names it
// on a "degraded:" line instead of dropping it without a word.
func TestResilientDivergencePanicRendered(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	cfg := DefaultConfig()
	cfg.Resilient = true
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withHook(t, func(stage, object string) {
		if stage == "divergence threads" && object == "5.0" {
			panic("injected divergence blow-up")
		}
	})
	div, err := rep.FindDivergenceContext(nil)
	if err != nil {
		t.Fatalf("resilient divergence pass: %v", err)
	}
	if len(div.Degraded) != 1 || div.Degraded[0].Object != "5.0" {
		t.Fatalf("Degraded = %v, want one StageError on 5.0", div.Degraded)
	}
	var b strings.Builder
	if err := div.Render(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if want := "degraded: " + div.Degraded[0].Error() + "\n"; !strings.Contains(got, want) {
		t.Errorf("rendered table lacks %q:\n%s", want, got)
	}
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, "5.0 ") {
			t.Errorf("skipped object still has a row: %q", line)
		}
	}
}
