package checks_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"difftrace/internal/lint"
	"difftrace/internal/lint/checks"
	"difftrace/internal/lint/checks/atomicdiscipline"
	"difftrace/internal/lint/checks/ctxdiscipline"
	"difftrace/internal/lint/checks/errwrap"
	"difftrace/internal/lint/checks/expanddiscipline"
	"difftrace/internal/lint/checks/lockdiscipline"
	"difftrace/internal/lint/checks/nakedgoroutine"
	"difftrace/internal/lint/checks/nilreceiver"
	"difftrace/internal/lint/checks/obsdiscipline"
	"difftrace/internal/lint/checks/orderflow"
	"difftrace/internal/lint/checks/panicdiscipline"
	"difftrace/internal/lint/checks/wallclock"
	"difftrace/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("..", "testdata", "src", name)
}

// Each fixture demonstrates at least one caught violation (want comments)
// and at least one allowed pattern (clean idiom or //lint:allow escape).
func TestWallclock(t *testing.T) { linttest.Run(t, wallclock.Check, fixture("wallclock")) }
func TestNakedgoroutine(t *testing.T) {
	linttest.Run(t, nakedgoroutine.Check, fixture("nakedgoroutine"))
}
func TestPanicdiscipline(t *testing.T) {
	linttest.Run(t, panicdiscipline.Check, fixture("panicdiscipline"))
}
func TestNilreceiver(t *testing.T)   { linttest.Run(t, nilreceiver.Check, fixture("nilreceiver")) }
func TestObsdiscipline(t *testing.T) { linttest.Run(t, obsdiscipline.Check, fixture("obsdiscipline")) }
func TestErrwrap(t *testing.T)       { linttest.Run(t, errwrap.Check, fixture("errwrap")) }
func TestCtxdiscipline(t *testing.T) { linttest.Run(t, ctxdiscipline.Check, fixture("ctxdiscipline")) }
func TestExpanddiscipline(t *testing.T) {
	linttest.Run(t, expanddiscipline.Check, fixture("expanddiscipline"))
}
func TestAtomicdiscipline(t *testing.T) {
	linttest.Run(t, atomicdiscipline.Check, fixture("atomicdiscipline"))
}

// TestCtxflow runs ctxdiscipline's sibling rule (rule 4) over a fixture
// module: the ctx-less API and its Context sibling live in another
// package, as they do in the module.
func TestCtxflow(t *testing.T) { linttest.RunModule(t, ctxdiscipline.Check, fixture("ctxflow")) }

// The interprocedural checks load their fixtures as whole modules: each
// violation spans at least one function boundary, most span packages.
func TestOrderflow(t *testing.T) { linttest.RunModule(t, orderflow.Check, fixture("orderflow")) }

// TestMaprange pins the map-range rules orderflow took over from the
// retired maprange check, on the cases moved from that check's fixture:
// a writing sink called in a map-range body and a map-ordered slice the
// function never sorts are reported; collect-then-sort, commutative folds
// and the //lint:allow escape stay clean.
func TestMaprange(t *testing.T) {
	linttest.RunModuleFiles(t, orderflow.Check, fixture("orderflow"), "maprange.go")
}
func TestLockdiscipline(t *testing.T) {
	linttest.RunModule(t, lockdiscipline.Check, fixture("lockdiscipline"))
}

// TestCtxdisciplineMainExempt: the same patterns in a package main fixture
// produce zero diagnostics — entry points own the root context.
func TestCtxdisciplineMainExempt(t *testing.T) {
	linttest.Run(t, ctxdiscipline.Check, fixture("ctxdiscipline_main"))
}

// TestJSONGolden pins the -json output shape: all checks over the jsonout
// fixture must serialize byte-identically to the checked-in golden file.
// Regenerate with UPDATE_GOLDEN=1 go test ./internal/lint/checks -run JSONGolden.
func TestJSONGolden(t *testing.T) {
	diags := linttest.Diagnostics(t, checks.All(), fixture("jsonout"))
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "testdata", "golden", "jsonout.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from golden\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRegistryNames pins the registry: eleven invariants, stable names,
// every check documented.
func TestRegistryNames(t *testing.T) {
	want := []string{"atomicdiscipline", "ctxdiscipline", "errwrap", "expanddiscipline", "lockdiscipline", "nakedgoroutine", "nilreceiver", "obsdiscipline", "orderflow", "panicdiscipline", "wallclock"}
	all := checks.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d checks, want %d", len(all), len(want))
	}
	for i, c := range all {
		if c.Name != want[i] {
			t.Errorf("check %d is %q, want %q", i, c.Name, want[i])
		}
		if c.Doc == "" {
			t.Errorf("check %q has no Doc", c.Name)
		}
	}
	if _, err := checks.ByName([]string{"orderflow", "errwrap"}); err != nil {
		t.Errorf("ByName on known checks: %v", err)
	}
	if _, err := checks.ByName([]string{"nope"}); err == nil {
		t.Error("ByName accepted an unknown check")
	}
}
