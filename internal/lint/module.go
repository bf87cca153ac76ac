// ModulePass: the whole-module unit of work for interprocedural checks.
// Where a Pass sees one package's syntax and types, a ModulePass sees every
// loaded package at once plus a shared fact table in which the engine
// layers (internal/lint/callgraph, internal/lint/summary) memoize their
// artifacts — the call graph and the per-function summaries are built once
// per run no matter how many checks consume them.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
)

// ModulePass hands one (check, module) unit of work its inputs and its
// reporter. Module checks run one after another, after the per-package
// checks.
type ModulePass struct {
	Pkgs  []*Package
	Check *Check

	// Facts memoizes engine artifacts across the module checks of one run.
	// Keys are owned by the producing package ("callgraph", "summary");
	// use Fact for the build-once pattern.
	Facts map[string]any

	runner *Runner
	out    *[]Diagnostic
}

// NewModulePass builds a standalone ModulePass over pkgs, for driving the
// engine layers (callgraph, summary) outside a Runner: unit tests and the
// CLI's -graph path. relRoot anchors module-relative positions. Reports
// made through it go to an internal sink; use a Runner for real runs.
func NewModulePass(pkgs []*Package, relRoot string) *ModulePass {
	var sink []Diagnostic
	return &ModulePass{
		Pkgs:   pkgs,
		Check:  &Check{Name: "adhoc"},
		Facts:  make(map[string]any),
		runner: NewRunner(nil, nil, relRoot),
		out:    &sink,
	}
}

// Fact returns the memoized artifact under key, building it on first use.
func (mp *ModulePass) Fact(key string, build func() any) any {
	if v, ok := mp.Facts[key]; ok {
		return v
	}
	v := build()
	mp.Facts[key] = v
	return v
}

// Fset returns the shared FileSet all loaded packages position against.
func (mp *ModulePass) Fset() *token.FileSet {
	if len(mp.Pkgs) == 0 {
		return token.NewFileSet()
	}
	return mp.Pkgs[0].Fset
}

// PkgRel returns pkg's module-relative directory ("" for the root package)
// — the coordinate the Exempt/Only config tables are keyed on.
func (mp *ModulePass) PkgRel(pkg *Package) string { return mp.runner.relPkgPath(pkg) }

// RelPosition resolves pos to module-relative (file, line, col).
func (mp *ModulePass) RelPosition(pos token.Pos) (file string, line, col int) {
	position := mp.Fset().Position(pos)
	file = position.Filename
	if root := mp.runner.relRoot; root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return file, position.Line, position.Column
}

// ReportAt records a diagnostic at an explicit module-relative position,
// carrying an optional interprocedural chain. pkgRel is the module-relative
// directory of the package owning the finding; the Exempt/Only tables are
// applied here, at report time, because a module check cannot be pre-
// filtered per package the way a Pass can.
func (mp *ModulePass) ReportAt(pkgRel, file string, line, col int, chain []string, format string, args ...any) {
	if !mp.runner.applies(mp.Check.Name, pkgRel) {
		return
	}
	*mp.out = append(*mp.out, Diagnostic{
		File:    file,
		Line:    line,
		Col:     col,
		Check:   mp.Check.Name,
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	})
}
