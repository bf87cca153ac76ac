package diffnlr

import (
	"strings"
	"testing"

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
