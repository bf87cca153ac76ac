// Module loading and type-checking. The loader is stdlib-only: packages in
// the module are discovered by walking the tree, parsed with go/parser, and
// type-checked with go/types; imports resolve through a shim that checks
// module-internal packages recursively from source and delegates everything
// else (the standard library) to go/importer's source importer. Loading is
// serial and memoized: each package is checked once per Loader.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: syntax plus types, which is
// exactly what a Pass needs.
type Package struct {
	Path       string // import path ("difftrace/internal/core", or the fixture's name)
	ModulePath string // module path this package belongs to ("" for bare fixture dirs)
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File // non-test files only; invariants bind shipped code
	Types      *types.Package
	Info       *types.Info
}

// Loader discovers, parses, and type-checks packages. One Loader holds one
// FileSet and one type-checking universe, so cross-package identity (same
// types.Object for the same declaration) holds within a run.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	std  types.ImporterFrom
	pkgs map[string]*Package // loaded packages by import path
}

// NewLoader roots a loader at the module containing dir (found by walking
// up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(p), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// LoadModule loads every package in the module, sorted by import path.
// Directories named testdata, vendor, hidden, or underscore-prefixed are
// skipped, matching the go tool's matching rules for "./...".
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if names, _ := l.goFiles(path, false); len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		path := l.ModPath
		if rel, err := filepath.Rel(l.ModRoot, dir); err == nil && rel != "." {
			path = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir, l.ModPath, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads a single directory as a standalone package under the given
// import path — the fixture-package entry point for tests.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.load(asPath, dir, "", nil)
}

// goFiles lists the .go files in dir that build for the current context
// (go/build applies //go:build constraints and GOOS/GOARCH rules): the
// non-test files, or with tests set the _test.go files.
func (l *Loader) goFiles(dir string, tests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") != tests {
			continue
		}
		if ok, err := ctx.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// load parses and type-checks one package directory, memoized by path.
// stack is the in-progress import chain: re-entering a path already on it
// is an import cycle.
func (l *Loader) load(path, dir, modPath string, stack []string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
	}
	pkg, err := l.doLoad(path, dir, modPath, append(stack, path))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

func (l *Loader) doLoad(path, dir, modPath string, stack []string) (*Package, error) {
	names, err := l.goFiles(dir, false)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	files, err := l.parse(dir, names)
	if err != nil {
		return nil, err
	}
	tpkg, info, err := l.check(path, files, &shimImporter{l: l, stack: stack})
	if err != nil {
		return nil, err
	}
	return &Package{
		Path: path, ModulePath: modPath, Dir: dir,
		Fset: l.Fset, Files: files, Types: tpkg, Info: info,
	}, nil
}

// LoadTests type-checks the _test.go files in pkg's directory in the
// loader's universe, so a test's references to other packages resolve to
// the same declarations the loaded packages make. It returns the
// in-package tests (checked together with pkg's own files) and the
// external _test package, each when present; a returned Package's Files
// are its test files only. The external package is checked as go test
// builds it, against pkg together with its in-package tests (see
// testImporter). The loader's memo is untouched: later imports of pkg
// still see the package without its tests.
func (l *Loader) LoadTests(pkg *Package) ([]*Package, error) {
	names, err := l.goFiles(pkg.Dir, true)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(pkg.Dir, names)
	if err != nil {
		return nil, err
	}
	var internal, external []*ast.File
	for _, f := range files {
		if f.Name.Name == pkg.Types.Name() {
			internal = append(internal, f)
		} else {
			external = append(external, f)
		}
	}
	var out []*Package
	var imp types.ImporterFrom = &shimImporter{l: l}
	for _, group := range []struct {
		path  string
		files []*ast.File
		own   []*ast.File
	}{
		{pkg.Path, internal, pkg.Files},
		{pkg.Path + "_test", external, nil},
	} {
		if len(group.files) == 0 {
			continue
		}
		tpkg, info, err := l.check(group.path, append(append([]*ast.File(nil), group.own...), group.files...), imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			Path: group.path, ModulePath: pkg.ModulePath, Dir: pkg.Dir,
			Fset: l.Fset, Files: group.files, Types: tpkg, Info: info,
		})
		// The external group, checked next, sees pkg with its in-package tests.
		imp = &testImporter{l: l, variant: tpkg, memo: make(map[string]*types.Package)}
	}
	return out, nil
}

// testImporter resolves the imports of an external test package the way go
// test builds it: the package under test is the variant checked with its
// in-package test files, so an export_test.go helper is visible, and every
// module package that imports it, directly or not, is checked again against
// that variant, so a type the test passes between them stays one type. Any
// other package comes from the loader's memo.
type testImporter struct {
	l       *Loader
	variant *types.Package
	memo    map[string]*types.Package // re-checked dependents by path
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	return t.ImportFrom(path, t.l.ModRoot, 0)
}

func (t *testImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == t.variant.Path() {
		return t.variant, nil
	}
	if p, ok := t.memo[path]; ok {
		return p, nil
	}
	p, err := (&shimImporter{l: t.l}).ImportFrom(path, srcDir, mode)
	if err != nil || !dependsOn(p, t.variant.Path(), make(map[*types.Package]bool)) {
		return p, err
	}
	p, _, err = t.l.check(path, t.l.pkgs[path].Files, t)
	if err != nil {
		return nil, err
	}
	t.memo[path] = p
	return p, nil
}

// dependsOn reports whether p imports path, directly or not.
func dependsOn(p *types.Package, path string, seen map[*types.Package]bool) bool {
	if seen[p] {
		return false
	}
	seen[p] = true
	for _, imp := range p.Imports() {
		if imp.Path() == path || dependsOn(imp, path, seen) {
			return true
		}
	}
	return false
}

// parse parses the named files of dir, comments included.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package path, failing on the first type
// error.
func (l *Loader) check(path string, files []*ast.File, imp types.ImporterFrom) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, typeErrs[0])
	}
	return tpkg, info, nil
}

// shimImporter routes module-internal imports back through the loader (so
// their syntax and Info stay available for analysis) and everything else to
// the source importer. One shim exists per in-progress load, carrying that
// load's import chain for cycle detection.
type shimImporter struct {
	l     *Loader
	stack []string
}

func (s *shimImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, s.l.ModRoot, 0)
}

func (s *shimImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := s.l
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := l.ModRoot
		if path != l.ModPath {
			dir = filepath.Join(l.ModRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/")))
		}
		pkg, err := l.load(path, dir, l.ModPath, s.stack)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
