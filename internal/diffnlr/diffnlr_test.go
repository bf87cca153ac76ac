package diffnlr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"difftrace/internal/diff"
	"difftrace/internal/nlr"
	"difftrace/internal/trace"
)

// calls is a summarized sequence of plain calls.
func calls(names ...string) []nlr.Element {
	out := make([]nlr.Element, len(names))
	for i, n := range names {
		out[i] = nlr.Element{Sym: n}
	}
	return out
}

// loopOf is a loop element: body id repeated count times.
func loopOf(id, count int) nlr.Element {
	return nlr.Element{Loop: &nlr.Loop{ID: id, Count: count}}
}

func TestIdenticalTraces(t *testing.T) {
	seq := []nlr.Element{{Sym: "MPI_Init"}, loopOf(0, 4), {Sym: "MPI_Finalize"}}
	d := Compute(trace.TID(3, 0), seq, seq, nil)
	if !d.Identical() || d.Distance() != 0 {
		t.Fatalf("identical traces reported distance %d", d.Distance())
	}
	if d.Verdict() != "traces identical" {
		t.Errorf("verdict = %q", d.Verdict())
	}
}

func TestSwapBugRendering(t *testing.T) {
	// Figure 5b.
	normal := []nlr.Element{{Sym: "MPI_Init"}, loopOf(1, 16), {Sym: "MPI_Finalize"}}
	faulty := []nlr.Element{{Sym: "MPI_Init"}, loopOf(1, 7), loopOf(0, 9), {Sym: "MPI_Finalize"}}
	d := Compute(trace.TID(5, 0), normal, faulty, nil)
	out := d.Render(false)
	if !strings.Contains(out, "diffNLR(5.0)") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "- L1^16") {
		t.Errorf("normal-only block not marked:\n%s", out)
	}
	if !strings.Contains(out, "+ L1^7") || !strings.Contains(out, "+ L0^9") {
		t.Errorf("faulty-only blocks not marked:\n%s", out)
	}
	// Common stem appears in both columns.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "verdict:") {
			continue
		}
		if strings.Contains(line, "MPI_Finalize") {
			if strings.Count(line, "MPI_Finalize") != 2 {
				t.Errorf("common token not mirrored: %q", line)
			}
		}
	}
	if !strings.Contains(d.Verdict(), "both traces reach MPI_Finalize") {
		t.Errorf("verdict = %q", d.Verdict())
	}
}

func TestDeadlockVerdict(t *testing.T) {
	// Figure 6: the faulty trace never reaches MPI_Finalize.
	normal := []nlr.Element{{Sym: "MPI_Init"}, loopOf(1, 16), {Sym: "MPI_Finalize"}}
	faulty := []nlr.Element{{Sym: "MPI_Init"}, loopOf(1, 7), {Sym: "MPI_Allreduce"}}
	d := Compute(trace.TID(5, 0), normal, faulty, nil)
	v := d.Verdict()
	if !strings.Contains(v, "stopped after MPI_Allreduce") || !strings.Contains(v, "never reached MPI_Finalize") {
		t.Errorf("verdict = %q", v)
	}
}

func TestLegendResolvesLoopIDs(t *testing.T) {
	tbl := nlr.NewTable()
	// Intern two bodies so L0/L1 resolve.
	nlr.Summarize([]string{"MPI_Send", "MPI_Recv", "MPI_Send", "MPI_Recv", "MPI_Send", "MPI_Recv"}, 10, tbl)
	nlr.Summarize([]string{"MPI_Recv", "MPI_Send", "MPI_Recv", "MPI_Send", "MPI_Recv", "MPI_Send"}, 10, tbl)
	d := Compute(trace.TID(0, 0), []nlr.Element{loopOf(0, 16)}, []nlr.Element{loopOf(0, 7), loopOf(1, 9)}, tbl)
	legend := d.Legend()
	if !strings.Contains(legend, "L0 = [MPI_Send MPI_Recv]") {
		t.Errorf("legend = %q", legend)
	}
	if !strings.Contains(legend, "L1 = [MPI_Recv MPI_Send]") {
		t.Errorf("legend = %q", legend)
	}
	if !strings.Contains(d.Render(false), "L0 = ") {
		t.Error("render should include legend")
	}
}

// TestLegendIgnoresLoopLikeCallNames: the legend lists the loops the
// sequences hold, not a call whose name reads like a loop token.
func TestLegendIgnoresLoopLikeCallNames(t *testing.T) {
	tbl := nlr.NewTable()
	l0 := tbl.Intern(calls("a", "b"))
	tbl.Intern(calls("p", "q"))
	folded := nlr.Element{Loop: &nlr.Loop{Body: tbl.Body(l0), Count: 2, ID: l0}}
	d := Compute(trace.TID(0, 0), []nlr.Element{{Sym: "L1^1"}, folded}, calls("L1^1"), tbl)
	if got, want := d.Legend(), "L0 = [a b]\n"; got != want {
		t.Errorf("legend = %q, want %q", got, want)
	}
}

func TestLegendWithoutTable(t *testing.T) {
	d := Compute(trace.TID(0, 0), []nlr.Element{loopOf(0, 2)}, []nlr.Element{loopOf(0, 3)}, nil)
	if d.Legend() != "" {
		t.Error("legend without table should be empty")
	}
}

func TestColorRendering(t *testing.T) {
	d := Compute(trace.TID(1, 1), calls("a", "b"), calls("a", "c"), nil)
	out := d.Render(true)
	for _, code := range []string{ansiGreen, ansiBlue, ansiRed} {
		if !strings.Contains(out, code) {
			t.Errorf("missing ANSI code %q", code)
		}
	}
	plain := d.Render(false)
	if strings.Contains(plain, "\x1b[") {
		t.Error("non-color render contains ANSI codes")
	}
}

func TestEmptyFaultyTrace(t *testing.T) {
	d := Compute(trace.TID(0, 0), calls("main"), nil, nil)
	if d.Identical() {
		t.Error("one-sided diff reported identical")
	}
	if d.Verdict() != "" {
		t.Errorf("verdict on empty side = %q", d.Verdict())
	}
	_ = d.Render(false) // must not panic
}

// renderRef is the reference renderer: each line through fmt's %-*s, into
// a builder that grows as it goes. Render is held to its bytes.
func renderRef(d *DiffNLR, color bool) string {
	width := 12
	for _, e := range d.Edits {
		for _, tok := range e.Tokens {
			if len(tok)+2 > width {
				width = len(tok) + 2
			}
		}
	}
	paint := func(code, s string) string {
		if !color {
			return s
		}
		return code + s + ansiReset
	}

	var b strings.Builder
	fmt.Fprintf(&b, "diffNLR(%s)  %-*s %s\n", d.ID, width, "normal", "faulty")
	rule := strings.Repeat("-", 2*width+12)
	b.WriteString(rule + "\n")
	for _, e := range d.Edits {
		for _, tok := range e.Tokens {
			switch e.Op {
			case diff.Equal:
				line := fmt.Sprintf("  %-*s   %-*s", width, tok, width, tok)
				b.WriteString(paint(ansiGreen, line) + "\n")
			case diff.Delete:
				line := fmt.Sprintf("- %-*s   %-*s", width, tok, width, "")
				b.WriteString(paint(ansiBlue, line) + "\n")
			case diff.Insert:
				line := fmt.Sprintf("  %-*s + %-*s", width, "", width, tok)
				b.WriteString(paint(ansiRed, line) + "\n")
			}
		}
	}
	b.WriteString(rule + "\n")
	if legend := d.Legend(); legend != "" {
		b.WriteString(legend)
	}
	if v := d.Verdict(); v != "" {
		b.WriteString("verdict: " + v + "\n")
	}
	return b.String()
}

// TestRenderMatchesReference: Render gives renderRef's bytes, with color
// on and off, for tokens with multi-byte runes, tokens wider than the
// 12-byte minimum column, identical and one-sided sequences, and a legend.
func TestRenderMatchesReference(t *testing.T) {
	tbl := nlr.NewTable()
	l0 := tbl.Intern(calls("MPI_Send", "MPI_Recv"))
	loop := nlr.Element{Loop: &nlr.Loop{Body: tbl.Body(l0), Count: 3, ID: l0}}
	rng := rand.New(rand.NewSource(27))
	alphabet := []string{"a", "MPI_Init", "é", "日本語", "ünïcödé_call", "MPI_Allreduce_with_a_long_name", "x y"}
	random := func(n int) []nlr.Element {
		out := make([]nlr.Element, n)
		for i := range out {
			out[i] = nlr.Element{Sym: alphabet[rng.Intn(len(alphabet))]}
		}
		return out
	}
	cases := []struct {
		name           string
		normal, faulty []nlr.Element
		table          *nlr.Table
	}{
		{"identical", calls("MPI_Init", "é", "MPI_Finalize"), calls("MPI_Init", "é", "MPI_Finalize"), nil},
		{"multi-byte", calls("main", "日本語", "ß"), calls("main", "ünïcödé", "日本語日本語日本語日本語"), nil},
		{"wide", calls("MPI_Allreduce_with_a_long_name", "b"), calls("c", "MPI_Allreduce_with_a_long_name"), nil},
		{"loops", []nlr.Element{{Sym: "main"}, loop}, []nlr.Element{{Sym: "main"}, {Sym: "MPI_Send"}}, tbl},
		{"empty-faulty", calls("main", "日本"), nil, nil},
		{"empty-normal", nil, calls("main"), nil},
		{"both-empty", nil, nil, nil},
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, struct {
			name           string
			normal, faulty []nlr.Element
			table          *nlr.Table
		}{"random", random(rng.Intn(30)), random(rng.Intn(30)), nil})
	}
	for _, tc := range cases {
		d := Compute(trace.TID(2, 1), tc.normal, tc.faulty, tc.table)
		for _, color := range []bool{false, true} {
			if got, want := d.Render(color), renderRef(d, color); got != want {
				t.Errorf("%s (color %v): Render differs from the reference\n got %q\nwant %q", tc.name, color, got, want)
			}
		}
	}
}
