package attr

import (
	"reflect"
	"testing"
	"testing/quick"

	"difftrace/internal/fca"
	"difftrace/internal/nlr"
	"difftrace/internal/trace"
)

func elems(tokens ...string) []nlr.Element {
	out := make([]nlr.Element, len(tokens))
	for i, t := range tokens {
		out[i] = nlr.Element{Sym: t}
	}
	return out
}

func loopElem(id, count int, body ...string) nlr.Element {
	return nlr.Element{Loop: &nlr.Loop{ID: id, Count: count, Body: elems(body...)}}
}

func TestConfigStringRoundTrip(t *testing.T) {
	for _, c := range AllConfigs() {
		got, err := ParseConfig(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v -> %q -> %v (%v)", c, c.String(), got, err)
		}
	}
	if len(AllConfigs()) != 6 {
		t.Errorf("sweep space = %d configs, want 6", len(AllConfigs()))
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, s := range []string{"", "sing", "sing.", "bad.noFreq", "sing.bad"} {
		if _, err := ParseConfig(s); err == nil {
			t.Errorf("ParseConfig(%q): expected error", s)
		}
	}
}

func TestSingleNoFreq(t *testing.T) {
	es := []nlr.Element{
		{Sym: "MPI_Init"},
		loopElem(0, 16, "MPI_Send", "MPI_Recv"),
		{Sym: "MPI_Finalize"},
	}
	got := Extract(es, Config{Single, NoFreq}).Sorted()
	want := []string{"L0", "MPI_Finalize", "MPI_Init"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %v", got)
	}
}

func TestSingleActualCountsLoopIterations(t *testing.T) {
	es := []nlr.Element{
		{Sym: "f"}, {Sym: "f"},
		loopElem(2, 7, "g"),
	}
	got := Extract(es, Config{Single, Actual}).Sorted()
	want := []string{"L2:7", "f:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %v", got)
	}
}

func TestSingleLog10Buckets(t *testing.T) {
	es := []nlr.Element{
		loopElem(0, 7, "a"),   // 7 -> e0
		loopElem(1, 42, "b"),  // 42 -> e1
		loopElem(2, 500, "c"), // 500 -> e2
	}
	got := Extract(es, Config{Single, Log10}).Sorted()
	want := []string{"L0:e0", "L1:e1", "L2:e2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %v", got)
	}
}

func TestLog10BucketsMergeNearbyFrequencies(t *testing.T) {
	// Frequencies 11 and 99 land in the same bucket; 9 and 11 do not.
	a := Extract([]nlr.Element{loopElem(0, 11, "x")}, Config{Single, Log10})
	b := Extract([]nlr.Element{loopElem(0, 99, "x")}, Config{Single, Log10})
	c := Extract([]nlr.Element{loopElem(0, 9, "x")}, Config{Single, Log10})
	if !a.Equal(b) {
		t.Error("11 and 99 should share a log10 bucket")
	}
	if a.Equal(c) {
		t.Error("9 and 11 should differ")
	}
}

func TestDoublePairs(t *testing.T) {
	es := elems("a", "b", "a", "b")
	got := Extract(es, Config{Double, Actual}).Sorted()
	want := []string{"a|b:2", "b|a:1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %v", got)
	}
}

func TestDoubleWithLoops(t *testing.T) {
	es := []nlr.Element{{Sym: "MPI_Init"}, loopElem(1, 4, "s", "r"), {Sym: "MPI_Finalize"}}
	got := Extract(es, Config{Double, NoFreq}).Sorted()
	want := []string{"L1|MPI_Finalize", "MPI_Init|L1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("attrs = %v", got)
	}
}

func TestEmptyTrace(t *testing.T) {
	for _, c := range AllConfigs() {
		if got := Extract(nil, c); got.Len() != 0 {
			t.Errorf("%v: empty trace produced %v", c, got)
		}
	}
	// Single element has no pairs.
	if got := Extract(elems("x"), Config{Double, NoFreq}); got.Len() != 0 {
		t.Errorf("single element produced pairs: %v", got)
	}
}

// Property: noFreq attrs are invariant to loop counts; actual attrs are not
// (when counts differ).
func TestQuickFreqSensitivity(t *testing.T) {
	f := func(c1, c2 uint8) bool {
		n1, n2 := int(c1)%50+1, int(c2)%50+1
		a := []nlr.Element{loopElem(0, n1, "x")}
		b := []nlr.Element{loopElem(0, n2, "x")}
		noF := Extract(a, Config{Single, NoFreq}).Equal(Extract(b, Config{Single, NoFreq}))
		if !noF {
			return false
		}
		act := Extract(a, Config{Single, Actual}).Equal(Extract(b, Config{Single, Actual}))
		return act == (n1 == n2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: extraction from a real summarizer output never panics and
// produces at most one attribute per distinct entry (Single/NoFreq).
func TestQuickExtractOnSummarized(t *testing.T) {
	f := func(stream []uint8) bool {
		toks := make([]string, len(stream))
		for i, s := range stream {
			toks[i] = string(rune('a' + int(s)%3))
		}
		es := nlr.Summarize(toks, 5, nil)
		got := Extract(es, Config{Single, NoFreq})
		return got.Len() <= len(es)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// ExtractContext mines a materialized trace's caller→callee attributes
// through ContextStream.
func ExtractContext(tr *trace.Trace, reg *trace.Registry, f Freq) fca.AttrSet {
	cs := NewContextStream()
	for _, e := range tr.Events {
		cs.Push(reg.Name(e.Func), e.Kind)
	}
	return cs.ExtractIn(NewInterner(), f)
}

func TestExtractContext(t *testing.T) {
	reg := trace.NewRegistry()
	tr := &trace.Trace{ID: trace.TID(0, 0)}
	push := func(name string, kind trace.EventKind) { tr.Append(reg.ID(name), kind) }
	// main{ f{ g } f{ g } } — caller/callee pairs with frequencies.
	push("main", trace.Enter)
	for i := 0; i < 2; i++ {
		push("f", trace.Enter)
		push("g", trace.Enter)
		push("g", trace.Exit)
		push("f", trace.Exit)
	}
	push("main", trace.Exit)

	got := ExtractContext(tr, reg, Actual).Sorted()
	want := []string{"_>main:1", "f>g:2", "main>f:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("context attrs = %v", got)
	}
	noF := ExtractContext(tr, reg, NoFreq).Sorted()
	if !reflect.DeepEqual(noF, []string{"_>main", "f>g", "main>f"}) {
		t.Errorf("noFreq context attrs = %v", noF)
	}
}

func TestContextDistinguishesCallSites(t *testing.T) {
	// The same callee under two different callers yields two attributes —
	// the calling-context sensitivity Single/Double lack.
	reg := trace.NewRegistry()
	mk := func(caller string) *trace.Trace {
		tr := &trace.Trace{ID: trace.TID(0, 0)}
		tr.Append(reg.ID(caller), trace.Enter)
		tr.Append(reg.ID("memcpy"), trace.Enter)
		tr.Append(reg.ID("memcpy"), trace.Exit)
		tr.Append(reg.ID(caller), trace.Exit)
		return tr
	}
	a := ExtractContext(mk("worker"), reg, NoFreq)
	b := ExtractContext(mk("master"), reg, NoFreq)
	if a.Jaccard(b) != 0 {
		t.Errorf("different call sites should not share context attrs: %v vs %v", a.Sorted(), b.Sorted())
	}
}

func TestContextConfigRoundTrip(t *testing.T) {
	c := Config{Kind: Context, Freq: Log10}
	if c.String() != "ctx.log10" {
		t.Errorf("String = %q", c.String())
	}
	got, err := ParseConfig("ctx.log10")
	if err != nil || got != c {
		t.Errorf("ParseConfig = %v, %v", got, err)
	}
}
