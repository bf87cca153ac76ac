package checks_test

import (
	"path/filepath"
	"sync"
	"testing"

	"difftrace/internal/lint"
	"difftrace/internal/lint/checks"
)

// moduleAudit loads this module and runs every check over it under the
// project config — the invocation `make lint` runs — once per test binary,
// shared by TestSelfCheck, TestDirectiveHygiene and TestNothingUnreachable.
var moduleAudit struct {
	once   sync.Once
	loader *lint.Loader
	pkgs   []*lint.Package
	diags  []lint.Diagnostic
	allows []lint.AllowStatus
	err    error
}

func auditModule(t *testing.T) ([]lint.Diagnostic, []lint.AllowStatus) {
	t.Helper()
	loadModule(t)
	return moduleAudit.diags, moduleAudit.allows
}

// loadModule returns the shared loader and this module's packages, auditing
// them on first use.
func loadModule(t *testing.T) (*lint.Loader, []*lint.Package) {
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
		a.loader, a.pkgs = loader, pkgs
		runner := lint.NewRunner(checks.All(), lint.ProjectConfig(), loader.ModRoot)
		a.diags, a.allows = runner.Audit(pkgs)
	})
	if a.err != nil {
		t.Fatal(a.err)
	}
	if len(a.pkgs) < 30 {
		t.Fatalf("loaded only %d packages — module discovery is broken", len(a.pkgs))
	}
	return a.loader, a.pkgs
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

// TestNothingUnreachable holds the module to the reachability rule of
// unreachable, with the benchmark module's main as one more binary: no
// package but the test-support ones lies outside every binary's imports,
// and no function or method in a shipped package lies outside every root's
// reach.
func TestNothingUnreachable(t *testing.T) {
	loader, pkgs := loadModule(t)
	findings, err := unreachable(loader, pkgs, []string{filepath.Join(loader.ModRoot, "_perfbench")}, testSupport)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
