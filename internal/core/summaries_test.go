package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"difftrace/internal/attr"
	"difftrace/internal/filter"
	"difftrace/internal/trace"
)

// rendered is a report's full text plus its Degraded list, one failure a
// line.
func rendered(t *testing.T, rep *Report) string {
	t.Helper()
	var b bytes.Buffer
	if err := rep.WriteReport(&b, RenderOptions{TopK: 6, Heatmaps: true, Dendrograms: true}); err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Degraded {
		fmt.Fprintf(&b, "degraded: %s\n", e)
	}
	return b.String()
}

// TestAnalyzeMatchesDiffRunResilientDeterminism: a Resilient Summarize
// analyzed under every attribute config gives each combination the report
// and Degraded list of a standalone Resilient DiffRun, whether the stage
// hook fails one object's NLR, one object's attribute extraction, or a
// whole level's entry.
func TestAnalyzeMatchesDiffRunResilientDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	t.Cleanup(func() { testStageHook = nil })
	hooks := []struct {
		name string
		fail func(stage, object string) bool
	}{
		{"nlr", func(stage, object string) bool { return object == "3.0" && strings.HasSuffix(stage, "/nlr") }},
		{"attr", func(stage, object string) bool { return object == "6" && stage == "process level/faulty/attr" }},
		{"level", func(stage, object string) bool { return stage == "thread level" && object == "" }},
	}
	for _, h := range hooks {
		fail := h.fail
		testStageHook = func(stage, object string) {
			if fail(stage, object) {
				panic("injected " + stage + " failure")
			}
		}
		for _, workers := range []int{1, 8} {
			cfg := DefaultConfig()
			cfg.Resilient, cfg.Workers = true, workers
			sum, err := Summarize(nil, normal, faulty, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ac := range attr.AllConfigs() {
				one := cfg
				one.Attr = ac
				want, err := DiffRun(normal, faulty, one)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Degraded) == 0 {
					t.Fatalf("%s hook: the standalone run degraded nothing", h.name)
				}
				got, err := sum.Analyze(nil, ac, cfg.Linkage)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := rendered(t, got), rendered(t, want); g != w {
					t.Errorf("%s hook, workers %d, %s: Analyze differs from DiffRun\n--- analyze ---\n%s\n--- diffrun ---\n%s",
						h.name, workers, ac, g, w)
				}
			}
		}
	}
}

// TestConcurrentAnalyzeWorkersDeterminism: Analyze calls sharing one
// Summaries from several goroutines, caller→callee attributes included,
// give the reports standalone DiffRuns give.
func TestConcurrentAnalyzeWorkersDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	normal := collect(t, 8, reg, nil)
	faulty := collect(t, 8, reg, swapPlan())
	flt, err := filter.ParseSpec("01.mpiall.0K10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Filter, cfg.Workers = flt, 2
	configs := append(attr.AllConfigs(), attr.Config{Kind: attr.Context, Freq: attr.Actual})
	want := make([]string, len(configs))
	for i, ac := range configs {
		one := cfg
		one.Attr = ac
		rep, err := DiffRun(normal, faulty, one)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rendered(t, rep)
	}
	sum, err := Summarize(nil, normal, faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Report, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i, ac := range configs {
		wg.Add(1)
		go func(i int, ac attr.Config) {
			defer wg.Done()
			got[i], errs[i] = sum.Analyze(nil, ac, cfg.Linkage)
		}(i, ac)
	}
	wg.Wait()
	for i, ac := range configs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", ac, errs[i])
		}
		if g := rendered(t, got[i]); g != want[i] {
			t.Errorf("%s: concurrent Analyze differs from DiffRun\n--- analyze ---\n%s\n--- diffrun ---\n%s", ac, g, want[i])
		}
	}
}
