package checks_test

import (
	"sync"
	"testing"

	"difftrace/internal/lint"
	"difftrace/internal/lint/checks"
)

// moduleAudit runs every check over this module under the project config —
// the invocation `make lint` runs — once per test binary, shared by
// TestSelfCheck and TestDirectiveHygiene.
var moduleAudit struct {
	once   sync.Once
	npkgs  int
	diags  []lint.Diagnostic
	allows []lint.AllowStatus
	err    error
}

func auditModule(t *testing.T) ([]lint.Diagnostic, []lint.AllowStatus) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module from source (a few seconds); run without -short")
	}
	a := &moduleAudit
	a.once.Do(func() {
		loader, err := lint.NewLoader(".")
		if err != nil {
			a.err = err
			return
		}
		pkgs, err := loader.LoadModule()
		if err != nil {
			a.err = err
			return
		}
		a.npkgs = len(pkgs)
		runner := lint.NewRunner(checks.All(), lint.ProjectConfig(), loader.ModRoot)
		a.diags, a.allows = runner.Audit(pkgs)
	})
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.npkgs < 30 {
		t.Fatalf("loaded only %d packages — module discovery is broken", a.npkgs)
	}
	return a.diags, a.allows
}

// TestSelfCheck is the enforced-by-construction gate: the analyzer must run
// clean — zero unsuppressed diagnostics — over every package of this module
// under the project config. It is the same invocation `make lint` runs, so
// a regression fails `go test` and CI even before the lint target.
func TestSelfCheck(t *testing.T) {
	diags, _ := auditModule(t)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
