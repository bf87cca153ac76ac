package nlr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"difftrace/internal/trace"
)

func toks(elems []Element) []string { return Tokens(elems) }

func TestFlatLoopDetection(t *testing.T) {
	// a b repeated 4 times -> one loop element L0^4.
	var in []string
	for i := 0; i < 4; i++ {
		in = append(in, "a", "b")
	}
	tbl := NewTable()
	got := toks(Summarize(in, 10, tbl))
	if !reflect.DeepEqual(got, []string{"L0^4"}) {
		t.Fatalf("tokens = %v", got)
	}
	if tbl.Describe(0) != "[a b]" {
		t.Errorf("body = %s", tbl.Describe(0))
	}
}

func TestSingleSymbolRun(t *testing.T) {
	in := []string{"x", "x", "x", "x", "x", "x"}
	got := toks(Summarize(in, 10, nil))
	if !reflect.DeepEqual(got, []string{"L0^6"}) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestNoLoopBelowThreeRepetitions(t *testing.T) {
	in := []string{"a", "b", "a", "b"} // only 2 reps: stays flat
	got := toks(Summarize(in, 10, nil))
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestNestedLoops(t *testing.T) {
	// (a b b b c) x3 -> outer loop whose body contains inner L(b)^3.
	var in []string
	for i := 0; i < 3; i++ {
		in = append(in, "a", "b", "b", "b", "c")
	}
	tbl := NewTable()
	got := toks(Summarize(in, 10, tbl))
	if len(got) != 1 || !strings.HasPrefix(got[0], "L") || !strings.HasSuffix(got[0], "^3") {
		t.Fatalf("tokens = %v", got)
	}
	// Inner body [b] and outer body [a L0^3 c] both interned.
	if tbl.Len() != 2 {
		t.Errorf("table has %d bodies, want 2: %s / %s", tbl.Len(), tbl.Describe(0), tbl.Describe(1))
	}
	if tbl.Describe(1) != "[a L0^3 c]" {
		t.Errorf("outer body = %s", tbl.Describe(1))
	}
}

func TestTableIIIOddEven(t *testing.T) {
	// The paper's §II-D example: MPI-filtered odd/even traces reduce to
	// Table III — T0/T3 iterate only twice, yet fold via the shared loop
	// table once T1/T2 reveal the bodies (two-pass SummarizeSet). Loop-ID
	// labels depend on discovery order (here the odd body is found first),
	// so we check structure, not the literal L0/L1 labels of the paper.
	set := trace.NewTraceSet()
	mk := func(p int, body []string, iters int) {
		tr := set.Get(trace.TID(p, 0))
		for _, n := range []string{"MPI_Init", "MPI_Comm_Rank", "MPI_Comm_Size"} {
			tr.Append(set.Registry.ID(n), trace.Enter)
		}
		for i := 0; i < iters; i++ {
			for _, n := range body {
				tr.Append(set.Registry.ID(n), trace.Enter)
			}
		}
		tr.Append(set.Registry.ID("MPI_Finalize"), trace.Enter)
	}
	even := []string{"MPI_Send", "MPI_Recv"}
	odd := []string{"MPI_Recv", "MPI_Send"}
	mk(0, even, 2)
	mk(1, odd, 4)
	mk(2, even, 4)
	mk(3, odd, 2)

	tbl := NewTable()
	res := SummarizeSet(set, 10, tbl)
	tok := func(p int) []string { return Tokens(res[trace.TID(p, 0)]) }

	head := []string{"MPI_Init", "MPI_Comm_Rank", "MPI_Comm_Size"}
	want := func(loop string) []string { return append(append([]string{}, head...), loop, "MPI_Finalize") }
	// Odd body discovered first (T1), so it gets L0; even body gets L1.
	if !reflect.DeepEqual(tok(0), want("L1^2")) {
		t.Errorf("T0 = %v", tok(0))
	}
	if !reflect.DeepEqual(tok(1), want("L0^4")) {
		t.Errorf("T1 = %v", tok(1))
	}
	if !reflect.DeepEqual(tok(2), want("L1^4")) {
		t.Errorf("T2 = %v", tok(2))
	}
	if !reflect.DeepEqual(tok(3), want("L0^2")) {
		t.Errorf("T3 = %v", tok(3))
	}
	if tbl.Describe(0) != "[MPI_Recv MPI_Send]" || tbl.Describe(1) != "[MPI_Send MPI_Recv]" {
		t.Errorf("bodies: %s %s", tbl.Describe(0), tbl.Describe(1))
	}
}

func TestKnownBodyFoldsAtTwoReps(t *testing.T) {
	tbl := NewTable()
	// Discover [a b] in one trace...
	Summarize([]string{"a", "b", "a", "b", "a", "b"}, 10, tbl)
	// ...then a two-rep occurrence in another folds via the heuristic.
	got := toks(Summarize([]string{"x", "a", "b", "a", "b", "y"}, 10, tbl))
	if !reflect.DeepEqual(got, []string{"x", "L0^2", "y"}) {
		t.Fatalf("tokens = %v", got)
	}
	// Without the table knowledge it must stay flat.
	got = toks(Summarize([]string{"x", "a", "b", "a", "b", "y"}, 10, NewTable()))
	if len(got) != 6 {
		t.Fatalf("unknown body folded at 2 reps: %v", got)
	}
}

func TestSharedTableAcrossTraces(t *testing.T) {
	tbl := NewTable()
	a := toks(Summarize([]string{"f", "g", "f", "g", "f", "g"}, 10, tbl))
	b := toks(Summarize([]string{"x", "f", "g", "f", "g", "f", "g", "y"}, 10, tbl))
	if a[0] != "L0^3" {
		t.Fatalf("a = %v", a)
	}
	if !reflect.DeepEqual(b, []string{"x", "L0^3", "y"}) {
		t.Fatalf("same loop body got different ID in second trace: %v", b)
	}
}

func TestBodyLongerThanKNotFolded(t *testing.T) {
	// Body length 4 with K=3 must not fold; with K=4 it must.
	body := []string{"a", "b", "c", "d"}
	var in []string
	for i := 0; i < 3; i++ {
		in = append(in, body...)
	}
	if got := toks(Summarize(in, 3, nil)); len(got) != len(in) {
		t.Errorf("K=3 folded a 4-long body: %v", got)
	}
	if got := toks(Summarize(in, 4, nil)); !reflect.DeepEqual(got, []string{"L0^3"}) {
		t.Errorf("K=4 tokens = %v", got)
	}
}

func TestLoopExtension(t *testing.T) {
	// 7 reps: fold at 3, then extend 4 more times -> count 7 (the paper's
	// swapBug trace shows L1^7 after seven iterations).
	var in []string
	for i := 0; i < 7; i++ {
		in = append(in, "MPI_Recv", "MPI_Send")
	}
	got := toks(Summarize(in, 10, nil))
	if !reflect.DeepEqual(got, []string{"L0^7"}) {
		t.Fatalf("tokens = %v", got)
	}
}

func TestSwapBugShape(t *testing.T) {
	// L1^7 then L0^9: the paper's Figure 5 shape for swapBug on rank 5.
	var in []string
	for i := 0; i < 7; i++ {
		in = append(in, "MPI_Recv", "MPI_Send")
	}
	for i := 0; i < 9; i++ {
		in = append(in, "MPI_Send", "MPI_Recv")
	}
	tbl := NewTable()
	got := toks(Summarize(in, 10, tbl))
	// The boundary Recv-Send-Send-Recv region allows several equally valid
	// summaries; what matters is that two distinct loop bodies emerge with
	// total expansion preserved (checked by losslessness below). Check the
	// leading token exactly.
	if got[0] != "L0^7" {
		t.Fatalf("tokens = %v", got)
	}
	if exp := Expand(Summarize(in, 10, NewTable())); !reflect.DeepEqual(exp, in) {
		t.Fatal("expansion mismatch")
	}
}

func TestExpandLossless(t *testing.T) {
	in := []string{"s", "a", "b", "a", "b", "a", "b", "t", "t", "t", "u"}
	elems := Summarize(in, 10, nil)
	if got := Expand(elems); !reflect.DeepEqual(got, in) {
		t.Fatalf("Expand = %v, want %v", got, in)
	}
}

func TestSummarizeTraceWithExits(t *testing.T) {
	reg := trace.NewRegistry()
	tr := &trace.Trace{ID: trace.TID(0, 0)}
	for i := 0; i < 3; i++ {
		tr.Append(reg.ID("f"), trace.Enter)
		tr.Append(reg.ID("f"), trace.Exit)
	}
	elems := SummarizeTrace(tr, reg, 10, nil)
	if len(elems) != 1 || elems[0].Loop == nil || elems[0].Loop.Count != 3 {
		t.Fatalf("elements = %v", Tokens(elems))
	}
	body := elems[0].Loop.Body
	if body[0].Sym != "f" || body[1].Sym != "ret:f" {
		t.Errorf("body = %v", Tokens(body))
	}
}

func TestTableBodyBounds(t *testing.T) {
	tbl := NewTable()
	if tbl.Body(0) != nil || tbl.Body(-1) != nil {
		t.Error("out-of-range Body should be nil")
	}
	if !strings.Contains(tbl.Describe(3), "?") {
		t.Error("Describe of unknown ID should mark unknown")
	}
}

// TestTableLegend: one line per distinct ID, ascending, whatever order and
// repeats the caller collected them in; the caller's slice is left as is.
func TestTableLegend(t *testing.T) {
	tbl := NewTable()
	tbl.Intern([]Element{{Sym: "a"}, {Sym: "b"}})
	tbl.Intern([]Element{{Sym: "p"}, {Sym: "q"}})
	ids := []int{1, 0, 1}
	if got, want := tbl.Legend(ids), "L0 = [a b]\nL1 = [p q]\n"; got != want {
		t.Errorf("Legend = %q, want %q", got, want)
	}
	if ids[0] != 1 || ids[1] != 0 {
		t.Errorf("Legend reordered the caller's IDs: %v", ids)
	}
	if tbl.Legend(nil) != "" {
		t.Error("Legend of no IDs should be empty")
	}
}

func TestReductionFactor(t *testing.T) {
	var in []string
	for i := 0; i < 100; i++ {
		in = append(in, "a", "b")
	}
	elems := Summarize(in, 10, nil)
	if r := Reduction(len(in), elems); r != 200 {
		t.Errorf("reduction = %f, want 200", r)
	}
	if r := Reduction(5, nil); r != 1 {
		t.Errorf("empty reduction = %f", r)
	}
}

func TestHigherKReducesMore(t *testing.T) {
	// Long-period pattern: higher K compresses it, low K cannot — the §V
	// K=10 vs K=50 observation.
	rng := rand.New(rand.NewSource(42))
	body := make([]string, 30)
	for i := range body {
		body[i] = string(rune('a' + rng.Intn(26)))
	}
	// ensure the body itself has no 3-fold repetition by construction noise
	var in []string
	for i := 0; i < 10; i++ {
		in = append(in, body...)
	}
	low := len(Summarize(in, 10, nil))
	high := len(Summarize(in, 50, nil))
	if high >= low {
		t.Errorf("K=50 (%d elements) should compress more than K=10 (%d)", high, low)
	}
}

// Property 1: NLR is lossless for arbitrary small-alphabet streams.
func TestQuickLossless(t *testing.T) {
	f := func(stream []uint8, k uint8) bool {
		in := make([]string, len(stream))
		for i, s := range stream {
			in[i] = string(rune('a' + int(s)%4))
		}
		K := int(k)%12 + 1
		elems := Summarize(in, K, nil)
		got := Expand(elems)
		if len(got) != len(in) {
			return false
		}
		for i := range got {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property 2: summarized length never exceeds input length.
func TestQuickNeverGrows(t *testing.T) {
	f := func(stream []uint8) bool {
		in := make([]string, len(stream))
		for i, s := range stream {
			in[i] = string(rune('a' + int(s)%3))
		}
		return len(Summarize(in, 10, nil)) <= len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property 3: interning the same body twice yields the same ID (table is a
// proper hash-consing table).
func TestQuickTableIdempotent(t *testing.T) {
	f := func(names []uint8) bool {
		if len(names) == 0 {
			return true
		}
		body := make([]Element, len(names))
		for i, n := range names {
			body[i] = Element{Sym: string(rune('a' + int(n)%5))}
		}
		tbl := NewTable()
		a := tbl.Intern(body)
		b := tbl.Intern(body)
		return a == b && tbl.Len() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSummarizeLoopy(b *testing.B) {
	var in []string
	for i := 0; i < 1000; i++ {
		in = append(in, "a", "b", "c")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(in, 10, nil)
	}
}

func TestTripleNestedLoops(t *testing.T) {
	// ((a b^3 c)^3 d)^3 — three levels of nesting, all folded ("restarted
	// ... for depth-2 loops and so on", §III-A).
	var mid []string
	for i := 0; i < 3; i++ {
		mid = append(mid, "a", "b", "b", "b", "c")
	}
	var outer []string
	for i := 0; i < 3; i++ {
		outer = append(outer, mid...)
		outer = append(outer, "d")
	}
	tbl := NewTable()
	elems := Summarize(outer, 10, tbl)
	if len(elems) != 1 || elems[0].Loop == nil || elems[0].Loop.Count != 3 {
		t.Fatalf("outer = %v", Tokens(elems))
	}
	// Three distinct bodies interned: [b], [a L^3 c], [L^3 d].
	if tbl.Len() != 3 {
		t.Fatalf("table = %d bodies", tbl.Len())
	}
	if got := Expand(elems); len(got) != len(outer) {
		t.Fatalf("lossless expansion failed: %d vs %d", len(got), len(outer))
	}
	// The outermost body references the middle loop by ID.
	if tbl.Describe(2) != "[L1^3 d]" {
		t.Errorf("outer body = %s", tbl.Describe(2))
	}
}
