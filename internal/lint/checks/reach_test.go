package checks_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"difftrace/internal/lint"
	"difftrace/internal/lint/callgraph"
)

// testSupport lists the module's packages that no binary imports and that
// stay anyway, by module-relative directory. Each is shared by the tests of
// more than one package, which a _test.go file cannot be.
var testSupport = []string{
	"internal/fca/reftest",      // frozen map-based FCA: the bitset engine's oracle
	"internal/lint/linttest",    // want-comment harness for every check's fixture
	"internal/nlr/reftest",      // frozen string-keyed NLR: the summarizer's oracle
	"internal/resilience/chaos", // corruption operators for the reader and service suites
	"internal/synth",            // seeded trace-pair generator for goldens and benchmarks
}

// unreachable applies the rule that nothing unreachable ships to the
// module pkgs loaded by loader. The binaries are the module's main
// packages plus the main package of each directory in benches, which lie
// outside the module walk and are type-checked read-only through the same
// loader. A module package no binary imports must declare nothing or be
// one of support (module-relative directories). In a package some binary
// imports, every
// function and method declared in a non-test file must be reachable along
// callgraph edges from a root:
//
//   - main of every binary, and init of every package a binary imports;
//   - every function a package-level variable initializer references;
//   - every method through which its type implements an interface of the
//     type-checked universe (the standard library's included, and the
//     error-chain interfaces its errors package asserts);
//   - every function a _test.go file in another directory references, as
//     the type checker resolves it: a helper shared by several packages'
//     tests cannot live in a _test.go file.
//
// It returns one finding per violation, sorted.
func unreachable(loader *lint.Loader, pkgs []*lint.Package, benches, support []string) ([]string, error) {
	all := append([]*lint.Package(nil), pkgs...)
	for _, dir := range benches {
		pkg, err := loader.LoadDir(dir, loader.ModPath+"/"+filepath.Base(dir))
		if err != nil {
			return nil, err
		}
		all = append(all, pkg)
	}
	byPath := make(map[string]*lint.Package, len(all))
	for _, pkg := range all {
		byPath[pkg.Path] = pkg
	}

	// Packages: the import closure of the binaries.
	live := make(map[string]bool)
	var queue []*lint.Package
	for _, pkg := range all {
		if pkg.Types.Name() == "main" {
			live[pkg.Path] = true
			queue = append(queue, pkg)
		}
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imp := range pkg.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok && !live[dep.Path] {
				live[dep.Path] = true
				queue = append(queue, dep)
			}
		}
	}
	rel := func(dir string) string {
		r, err := filepath.Rel(loader.ModRoot, dir)
		if err != nil {
			return dir
		}
		return filepath.ToSlash(r)
	}
	var findings []string
	supported := make(map[string]bool, len(support))
	for _, s := range support {
		supported[s] = true
	}
	for _, pkg := range pkgs {
		dir := rel(pkg.Dir)
		switch {
		case live[pkg.Path] && supported[dir]:
			findings = append(findings, fmt.Sprintf("%s: test-support package imported by a binary", dir))
		case !live[pkg.Path] && !supported[dir] && pkg.Types.Scope().Len() > 0:
			findings = append(findings, fmt.Sprintf("%s: no binary imports this package", dir))
		}
		delete(supported, dir)
	}
	for _, s := range support {
		if supported[s] {
			findings = append(findings, fmt.Sprintf("%s: test-support package not found", s))
		}
	}

	// Functions: a BFS over the call graph's edges from the four root kinds.
	g := callgraph.Build(all)
	reached := make(map[*callgraph.Node]bool)
	var work []*callgraph.Node
	root := func(fn *types.Func) {
		if n := g.ByKey[callgraph.KeyOf(fn)]; n != nil && !reached[n] {
			reached[n] = true
			work = append(work, n)
		}
	}
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					name := d.Name.Name
					if fn != nil && d.Recv == nil && live[pkg.Path] &&
						(name == "init" || name == "main" && pkg.Types.Name() == "main") {
						root(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						forEachFunc(pkg.Info, d, root)
					}
				}
			}
		}
	}
	methods, err := interfaceMethods(all)
	if err != nil {
		return nil, err
	}
	for _, fn := range methods {
		root(fn)
	}
	for _, pkg := range all {
		tests, err := loader.LoadTests(pkg)
		if err != nil {
			return nil, err
		}
		for _, tp := range tests {
			for _, f := range tp.Files {
				forEachFunc(tp.Info, f, func(fn *types.Func) {
					if n := g.ByKey[callgraph.KeyOf(fn)]; n != nil && n.Pkg.Dir != pkg.Dir {
						root(fn)
					}
				})
			}
		}
	}
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		for _, e := range n.Calls {
			if !reached[e.Callee] {
				reached[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}

	for _, pkg := range pkgs {
		if !live[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || reached[g.ByKey[callgraph.KeyOf(fn)]] {
					continue
				}
				pos := pkg.Fset.Position(fd.Pos())
				findings = append(findings, fmt.Sprintf("%s:%d: %s is unreachable",
					rel(pos.Filename), pos.Line, callgraph.KeyOf(fn)))
			}
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// forEachFunc calls visit for every function or method an identifier under
// n refers to.
func forEachFunc(info *types.Info, n ast.Node, visit func(*types.Func)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				visit(fn)
			}
		}
		return true
	})
}

// errorChain declares, as named types, the anonymous interfaces that
// errors.Is, As and Unwrap assert inside their bodies, which the importer
// does not type-check.
const errorChain = `package errorchain

type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// interfaceMethods returns every method through which a named type that
// pkgs declare implements a named interface of the universe pkgs import,
// the predeclared error, or one of errorChain's.
func interfaceMethods(pkgs []*lint.Package) ([]*types.Func, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errorchain.go", errorChain, 0)
	if err != nil {
		return nil, err
	}
	chain, err := new(types.Config).Check("errorchain", fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	// The universe: every package reachable through imports.
	seen := make(map[*types.Package]bool)
	stack := []*types.Package{chain}
	for _, pkg := range pkgs {
		stack = append(stack, pkg.Types)
	}
	ifaces := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		if it.NumMethods() > 0 && it.IsMethodSet() {
			name := it.Method(0).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		stack = append(stack, p.Imports()...)
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				if it, ok := named.Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
	}

	var out []*types.Func
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				for _, it := range ifaces[mset.At(i).Obj().Name()] {
					if !types.Implements(ptr, it) {
						continue
					}
					for j := 0; j < it.NumMethods(); j++ {
						m := it.Method(j)
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							out = append(out, sel.Obj().(*types.Func))
						}
					}
				}
			}
		}
	}
	return out, nil
}

// TestReachabilityRule pins unreachable on a fixture module: each case the
// rule must flag, and each root kind that must keep a function live.
func TestReachabilityRule(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module fx\n\ngo 1.22\n",
		"cmd/app/main.go": `package main

import (
	"fx/dep"
	"fx/lib"
)

func main() { lib.FromMain(); dep.Use(lib.T{}) }
`,
		"lib/lib.go": `package lib

import "fmt"

// FromMain is reached only from a binary's main.
func FromMain() { fmt.Println(T{}) }

// OwnTestOnly is called by nothing but lib's own test.
func OwnTestOnly() int { return 1 }

// OtherTest is called by a test in another directory.
func OtherTest() int { return helper() }

func helper() int { return 2 }

// T is a fmt.Stringer through String alone.
type T struct{}

func (T) String() string { return "t" }

var hook = fromVar

// fromVar is referenced only from a package-level var.
func fromVar() {}

// E wraps an error; errors.Is reaches Unwrap through an interface the
// errors package declares in a function body.
type E struct{ err error }

func (e E) Error() string { return e.err.Error() }
func (e E) Unwrap() error { return e.err }

// hidden is reached only through export_test.go.
func hidden() int { return 3 }
`,
		"lib/lib_test.go": `package lib

var _ = OwnTestOnly()
`,
		"lib/export_test.go": `package lib

// Hidden exposes hidden to lib's external test.
var Hidden = hidden
`,
		"lib/ext_test.go": `package lib_test

import (
	"fx/dep"
	"fx/lib"
)

// dep imports lib, so go test builds it against lib with its tests too.
var _ lib.T = dep.Use(lib.T{})

var _ = lib.Hidden()
`,
		"dep/dep.go": `package dep

import "fx/lib"

// Use passes a lib type through a package that imports lib.
func Use(t lib.T) lib.T { return t }
`,
		"other/other.go": `package other

// Run is reached only from the benchmark's main.
func Run() {}
`,
		"other/other_test.go": `package other_test

import "fx/lib"

var _ = lib.OtherTest()
`,
		"orphan/orphan.go": `package orphan

// Unused is in a package no binary imports.
func Unused() {}
`,
		"doc.go": `// Package fx declares nothing: only its documentation and tests.
package fx
`,
		"support/support.go": `package support

// Shared is a test helper several packages' tests call.
func Shared() {}
`,
		"_bench/main.go": `package main

import "fx/other"

func main() { other.Run() }
`,
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := unreachable(loader, pkgs, []string{filepath.Join(root, "_bench")}, []string{"support"})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(findings))
	for _, f := range findings {
		got[f] = true
	}
	for _, c := range []struct {
		name, finding string
		flagged       bool
	}{
		{"a function only its own package's test calls", "lib/lib.go:9: fx/lib.OwnTestOnly is unreachable", true},
		{"a function only its own export_test.go reaches", "lib/lib.go:34: fx/lib.hidden is unreachable", true},
		{"a package no binary imports, not test support", "orphan: no binary imports this package", true},
		{"a function another package's test calls", "lib/lib.go:12: fx/lib.OtherTest is unreachable", false},
		{"a function only that one calls", "lib/lib.go:14: fx/lib.helper is unreachable", false},
		{"a method that makes its type a fmt.Stringer", "lib/lib.go:19: (fx/lib.T).String is unreachable", false},
		{"a method errors.Is reaches through an anonymous interface", "lib/lib.go:31: (fx/lib.E).Unwrap is unreachable", false},
		{"a function referenced only from a package-level var", "lib/lib.go:24: fx/lib.fromVar is unreachable", false},
		{"a function reached only from a main", "lib/lib.go:6: fx/lib.FromMain is unreachable", false},
		{"a package only the benchmark's main imports", "other: no binary imports this package", false},
		{"a function reached only from the benchmark's main", "other/other.go:4: fx/other.Run is unreachable", false},
		{"a test-support package", "support: no binary imports this package", false},
		{"a package that declares nothing", ".: no binary imports this package", false},
	} {
		if got[c.finding] != c.flagged {
			t.Errorf("%s: flagged = %v, want %v", c.name, got[c.finding], c.flagged)
		}
		delete(got, c.finding)
	}
	for f := range got {
		t.Errorf("unexpected finding %q", f)
	}
}
