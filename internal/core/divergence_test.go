package core

import (
	"strings"
	"testing"

	"difftrace/internal/diffnlr"
	"difftrace/internal/nlr"
)

// TestDivergenceLegendFromElements: the divergence legend lists the loops
// the rows show, once each, and not a call whose name reads like a loop
// token.
func TestDivergenceLegendFromElements(t *testing.T) {
	tbl := nlr.NewTable()
	l0 := tbl.Intern([]nlr.Element{{Sym: "a"}, {Sym: "b"}})
	tbl.Intern([]nlr.Element{{Sym: "p"}, {Sym: "q"}})
	folded := func(n int) nlr.Element { return nlr.Element{Loop: &nlr.Loop{Body: tbl.Body(l0), Count: n, ID: l0}} }
	d := diffnlr.FindDivergence(
		[]nlr.Element{{Sym: "L1^1"}, folded(2), {Sym: "x"}},
		[]nlr.Element{{Sym: "L1^1"}, folded(2), folded(3)})
	if d == nil {
		t.Fatal("no divergence")
	}
	d.Object = "0.0"
	rep := &DivergenceReport{table: tbl, Threads: &LevelDivergence{
		Level: "threads", Objects: 1, Items: []*ObjectDivergence{{Divergence: *d}},
	}}
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "L0 = [a b]\n") != 1 || strings.Contains(out, "L1 = ") {
		t.Errorf("legend should list L0 once and no L1:\n%s", out)
	}
}
