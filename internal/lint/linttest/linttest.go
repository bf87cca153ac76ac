// Package linttest is the fixture harness for difftracelint checks: it
// loads a testdata package, runs one check over it with no project config
// (so exemption tables don't mask the check under test), and compares the
// diagnostics against `// want "regexp"` expectation comments, in the
// spirit of golang.org/x/tools' analysistest but stdlib-only.
//
// A want comment binds to its own line: every diagnostic must be matched
// by a want on its line, and every want must match at least one diagnostic.
// //lint:allow directives in fixtures are honored, which is how each
// fixture demonstrates its check's sanctioned-escape pattern.
package linttest

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"difftrace/internal/lint"
)

// wantRe accepts both quoting styles: // want "..." and // want `...`.
var wantRe = regexp.MustCompile("//\\s*want\\s+(\".*\"|`[^`]*`)\\s*$")

// Run loads fixtureDir as a standalone package and checks check against
// its want comments.
func Run(t *testing.T, check *lint.Check, fixtureDir string) {
	t.Helper()
	diags := Diagnostics(t, []*lint.Check{check}, fixtureDir)
	files, err := filepath.Glob(filepath.Join(fixtureDir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, fixtureDir, files, diags)
}

// RunModule loads fixtureDir as a complete module (it must contain its own
// go.mod) and checks check against want comments across every package —
// the harness for interprocedural fixtures, whose violations span package
// boundaries.
func RunModule(t *testing.T, check *lint.Check, fixtureDir string) {
	t.Helper()
	diags := ModuleDiagnostics(t, []*lint.Check{check}, fixtureDir)
	var files []string
	err := filepath.WalkDir(fixtureDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	matchWants(t, fixtureDir, files, diags)
}

// RunModuleFiles is RunModule narrowed to the named files (slash-separated,
// relative to fixtureDir): the whole module is loaded and checked, but only
// those files' diagnostics and want comments are reconciled.
func RunModuleFiles(t *testing.T, check *lint.Check, fixtureDir string, names ...string) {
	t.Helper()
	keep := make(map[string]bool, len(names))
	files := make([]string, 0, len(names))
	for _, name := range names {
		keep[name] = true
		files = append(files, filepath.Join(fixtureDir, filepath.FromSlash(name)))
	}
	var diags []lint.Diagnostic
	for _, d := range ModuleDiagnostics(t, []*lint.Check{check}, fixtureDir) {
		if keep[d.File] {
			diags = append(diags, d)
		}
	}
	matchWants(t, fixtureDir, files, diags)
}

// matchWants scans want comments out of files (named relative to root, the
// way diagnostics are) and reconciles them against diags: every diagnostic
// needs a matching want on its line, every want needs a diagnostic.
func matchWants(t *testing.T, root string, files []string, diags []lint.Diagnostic) {
	t.Helper()
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatalf("%s:%d: unparseable want comment %s", path, i+1, m[1])
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
			}
			wants = append(wants, &want{file: filepath.ToSlash(rel), line: i + 1, re: re})
		}
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

// Diagnostics loads fixtureDir and returns the surviving diagnostics of the
// given checks, with file paths relative to the fixture directory.
func Diagnostics(t *testing.T, checks []*lint.Check, fixtureDir string) []lint.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(abs)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(abs, filepath.Base(abs))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixtureDir, err)
	}
	runner := lint.NewRunner(checks, nil, abs)
	return runner.Run([]*lint.Package{pkg})
}

// ModuleDiagnostics loads fixtureDir as its own module and returns the
// surviving diagnostics of the given checks over all of its packages, with
// file paths relative to the fixture root.
func ModuleDiagnostics(t *testing.T, checks []*lint.Check, fixtureDir string) []lint.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(abs)
	if err != nil {
		t.Fatal(err)
	}
	if loader.ModRoot != abs {
		t.Fatalf("fixture %s has no go.mod of its own (loader rooted at %s)", fixtureDir, loader.ModRoot)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", fixtureDir, err)
	}
	runner := lint.NewRunner(checks, nil, abs)
	return runner.Run(pkgs)
}
