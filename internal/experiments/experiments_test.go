package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"difftrace/internal/nlr"
)

// TestAllExperimentsPassShapeChecks runs every table/figure reproduction
// and asserts its paper-shape self-check holds — the repository's
// end-to-end evaluation gate.
func TestAllExperimentsPassShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavyweight; skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			out, err := e.Run(&buf)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !out.Pass {
				t.Errorf("%s shape check failed: %s\noutput:\n%s", e.ID, out.Note, buf.String())
			}
			if buf.Len() == 0 {
				t.Errorf("%s produced no artifact output", e.ID)
			}
		})
	}
}

func TestGetAndAll(t *testing.T) {
	if len(All()) != 17 {
		t.Errorf("experiment count = %d, want 17", len(All()))
	}
	if _, ok := Get("tableII"); !ok {
		t.Error("tableII not found")
	}
	if _, ok := Get("bogus"); ok {
		t.Error("bogus experiment found")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

// TestContainsTokenLooksInsideLoops pins that a call the NLR folded into a
// loop still counts as present on that side of a diffNLR (Figure 7a's
// normal 6.4 trace can be nothing but L<id>^<n> of its critical sections),
// and that a call merely named like a loop token is not read as one.
func TestContainsTokenLooksInsideLoops(t *testing.T) {
	table := nlr.NewTable()
	inner := table.Intern([]nlr.Element{{Sym: "GOMP_critical_start"}, {Sym: "memcpy"}})
	outer := table.Intern([]nlr.Element{{Sym: "CPU_Exec"}, {Loop: &nlr.Loop{Body: table.Body(inner), Count: 2, ID: inner}}})
	folded := []nlr.Element{{Sym: "main"}, {Loop: &nlr.Loop{Body: table.Body(outer), Count: 3, ID: outer}}}
	if !containsToken(folded, "GOMP_critical_start") {
		t.Error("call inside a nested loop body not found")
	}
	if containsToken(folded, "MPI_Finalize") {
		t.Error("absent call found")
	}
	if containsToken([]nlr.Element{{Sym: fmt.Sprintf("L%d^3", outer)}}, "GOMP_critical_start") {
		t.Error("a call named like a loop token was read as that loop")
	}
	if !containsToken([]nlr.Element{{Sym: "MPI_Allreduce"}}, "MPI_Allreduce") {
		t.Error("plain call not found")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	o := newOutcome()
	o.metric("k", "%d", 42)
	if !strings.Contains(o.Summary(), "PASS") || !strings.Contains(o.Summary(), "k = 42") {
		t.Errorf("summary = %q", o.Summary())
	}
	o.fail("first %s", "problem")
	o.fail("second")
	s := o.Summary()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "first problem; second") {
		t.Errorf("summary = %q", s)
	}
}

// TestTableIIDeterministic pins that re-running the cheap experiments gives
// identical artifacts (fixed seeds, deterministic pipeline).
func TestTableIIDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if _, err := TableII(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render() != render() {
		t.Error("TableII output not deterministic")
	}
}

func TestQuietWriterWorks(t *testing.T) {
	// Experiments must tolerate io.Discard (the -quiet CLI path).
	if _, err := TableIV(io.Discard); err != nil {
		t.Fatal(err)
	}
}
