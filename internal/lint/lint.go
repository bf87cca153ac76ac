// Package lint is difftracelint's analyzer framework: a stdlib-only
// (go/parser, go/ast, go/types, go/importer) static analyzer that loads
// every package in the module, type-checks it, and runs a registry of
// project-invariant checks, one check per invariant.
//
// Each check proves, at compile time, an invariant the test suites could
// only sample at runtime: byte-identical reports at any worker count
// (orderflow, wallclock, nakedgoroutine, lockdiscipline,
// atomicdiscipline), degraded-not-dead error handling (panicdiscipline,
// errwrap), cancellation that flows (ctxdiscipline), summaries that never
// expand a whole trace (expanddiscipline), and the nil-off observability
// contract (nilreceiver, obsdiscipline). Most checks run per package;
// lockdiscipline and orderflow need the whole module (see ModulePass).
// See DESIGN.md §9 for the invariant ledger and §14 for the whole-module
// engine.
//
// Diagnostics render as "file:line: [check-name] message" (module-relative
// paths) or as a stable JSON array. Two suppression layers exist:
//
//   - the per-project Config table exempts whole package subtrees from a
//     check (the table IS the invariant: "all goroutines start in
//     internal/pool" is expressed as nakedgoroutine exempting only
//     internal/pool), and
//   - //lint:allow check-name reason — an inline directive that suppresses
//     matching diagnostics on its own line and the line directly below.
//     The reason is mandatory: a bare //lint:allow is itself reported
//     (check "baddirective"), as is a directive naming an unknown check or
//     one that suppresses nothing.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in module-relative coordinates so
// JSON output is machine-stable across checkouts. Interprocedural checks
// attach Chain: the call path from an exported entry point to the function
// containing the finding, rendered by -why (and omitted from JSON when the
// finding is purely local, so the legacy document shape is unchanged).
type Diagnostic struct {
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Check   string   `json:"check"`
	Message string   `json:"message"`
	Chain   []string `json:"chain,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Check is one registered project invariant. Exactly one of Run and
// RunModule is set: Run is invoked once per loaded package (checks the
// type checker resolves inside one package), RunModule once per module
// with every package loaded (interprocedural checks that compose
// call-graph and summary facts).
type Check struct {
	Name      string // stable kebab-free identifier, used in directives and JSON
	Doc       string // one-line invariant statement (shown by difftracelint -list)
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass hands one (check, package) unit of work its inputs and its reporter.
type Pass struct {
	Pkg   *Package
	Check *Check

	runner *Runner
	out    *[]Diagnostic
}

// Reportf records a diagnostic at pos. Positions outside the package's
// fileset (token.NoPos) are attributed to the package directory.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	file := position.Filename
	if p.runner != nil && p.runner.relRoot != "" {
		if rel, err := filepath.Rel(p.runner.relRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	*p.out = append(*p.out, Diagnostic{
		File:    file,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Config is the per-project allowlist table. Paths are module-relative
// directory prefixes ("internal/pool" covers internal/pool and everything
// below it; "" matches nothing).
type Config struct {
	// Exempt turns a check off inside the listed subtrees. This is the
	// canonical escape hatch for the package that legitimately owns the
	// pattern (pool owns goroutines and panic re-raise, obs owns the clock).
	Exempt map[string][]string
	// Only restricts a check to the listed subtrees; an absent or empty
	// entry means the check runs everywhere. nilreceiver uses this: the
	// nil-off contract is an obs-specific API promise, not a global rule.
	Only map[string][]string
}

// BadDirective is the reserved check name under which malformed or inert
// //lint:allow directives are reported. It cannot be suppressed.
const BadDirective = "baddirective"

// allowRe matches "lint:allow <check> <reason>" with the reason optional at
// the syntax level (a missing reason is reported, not silently accepted).
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)(?:\s+(.*))?$`)

type allowDirective struct {
	file   string // module-relative
	line   int
	check  string
	reason string
	pos    token.Pos
	used   bool
}

// Runner executes a set of checks over loaded packages under one config.
type Runner struct {
	Checks  []*Check
	Config  *Config
	relRoot string // absolute dir that diagnostics are relativized against
}

// NewRunner builds a runner; relRoot (usually the module root) anchors the
// module-relative paths in diagnostics and directives. config may be nil
// (no exemptions — the mode fixture tests run in).
func NewRunner(checks []*Check, config *Config, relRoot string) *Runner {
	if config == nil {
		config = &Config{}
	}
	return &Runner{Checks: checks, Config: config, relRoot: relRoot}
}

// Run analyzes every package and returns the surviving diagnostics sorted
// by (file, line, col, check, message). Suppressed findings are dropped;
// malformed or unused //lint:allow directives come back as baddirective
// findings. Per-package checks run package by package; module-scoped
// checks then run once over the full package set.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	diags, _ := r.run(pkgs)
	return diags
}

// AllowStatus is one //lint:allow directive's audit record: where it is,
// what it claims to suppress, and whether it suppressed anything in the run
// that produced it (Used == false means the directive is stale).
type AllowStatus struct {
	File   string
	Line   int
	Check  string
	Reason string
	Used   bool
}

// Audit runs every check and additionally returns the per-directive usage
// ledger, sorted by (file, line) — the directive-hygiene sweep that proves
// no //lint:allow outlived the finding it was written for.
func (r *Runner) Audit(pkgs []*Package) ([]Diagnostic, []AllowStatus) {
	diags, allows := r.run(pkgs)
	sts := make([]AllowStatus, 0, len(allows))
	for _, a := range allows {
		sts = append(sts, AllowStatus{File: a.file, Line: a.line, Check: a.check, Reason: a.reason, Used: a.used})
	}
	sort.Slice(sts, func(i, j int) bool {
		if sts[i].File != sts[j].File {
			return sts[i].File < sts[j].File
		}
		return sts[i].Line < sts[j].Line
	})
	return diags, sts
}

func (r *Runner) run(pkgs []*Package) ([]Diagnostic, []*allowDirective) {
	var perPkg, modChecks []*Check
	for _, c := range r.Checks {
		if c.RunModule != nil {
			modChecks = append(modChecks, c)
		}
		if c.Run != nil {
			perPkg = append(perPkg, c)
		}
	}
	var diags []Diagnostic
	var allows []*allowDirective
	for _, pkg := range pkgs {
		allows = append(allows, r.collectAllows(pkg)...)
		rel := r.relPkgPath(pkg)
		for _, c := range perPkg {
			if r.applies(c.Name, rel) {
				c.Run(&Pass{Pkg: pkg, Check: c, runner: r, out: &diags})
			}
		}
	}
	if len(modChecks) > 0 && len(pkgs) > 0 {
		mp := &ModulePass{
			Pkgs:   pkgs,
			Facts:  make(map[string]any),
			runner: r,
			out:    &diags,
		}
		for _, c := range modChecks {
			mp.Check = c
			c.RunModule(mp)
		}
	}
	diags = r.suppress(diags, allows)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, allows
}

// relPkgPath maps an import path to its module-relative directory ("" for
// the module root package).
func (r *Runner) relPkgPath(pkg *Package) string {
	if pkg.ModulePath == "" || pkg.Path == pkg.ModulePath {
		return ""
	}
	return strings.TrimPrefix(pkg.Path, pkg.ModulePath+"/")
}

// applies decides whether check name runs for a package at module-relative
// path rel, per the Only/Exempt tables.
func (r *Runner) applies(name, rel string) bool {
	if only := r.Config.Only[name]; len(only) > 0 && !matchesAny(rel, only) {
		return false
	}
	return !matchesAny(rel, r.Config.Exempt[name])
}

func matchesAny(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// collectAllows scans a package's comments for //lint:allow directives.
func (r *Runner) collectAllows(pkg *Package) []*allowDirective {
	known := make(map[string]bool, len(r.Checks))
	for _, c := range r.Checks {
		known[c.Name] = true
	}
	var out []*allowDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				file := position.Filename
				if rel, err := filepath.Rel(r.relRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = filepath.ToSlash(rel)
				}
				d := &allowDirective{
					file:   file,
					line:   position.Line,
					check:  m[1],
					reason: strings.TrimSpace(m[2]),
					pos:    c.Pos(),
				}
				if !known[d.check] {
					d.used = true // don't double-report as unused
					out = append(out, d)
					continue
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppress drops diagnostics covered by a well-formed directive and emits
// baddirective findings for directives that are malformed, name an unknown
// check, or suppress nothing.
func (r *Runner) suppress(diags []Diagnostic, allows []*allowDirective) []Diagnostic {
	known := make(map[string]bool, len(r.Checks))
	for _, c := range r.Checks {
		known[c.Name] = true
	}
	// Index well-formed directives by (file, check) for the line test.
	type key struct {
		file  string
		check string
	}
	byKey := map[key][]*allowDirective{}
	for _, a := range allows {
		if known[a.check] && a.reason != "" {
			byKey[key{a.file, a.check}] = append(byKey[key{a.file, a.check}], a)
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, a := range byKey[key{d.File, d.Check}] {
			// A directive covers its own line (trailing comment) and the
			// line directly below (directive-above-statement).
			if d.Line == a.line || d.Line == a.line+1 {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for _, a := range allows {
		switch {
		case !known[a.check]:
			kept = append(kept, Diagnostic{
				File: a.file, Line: a.line, Col: 1, Check: BadDirective,
				Message: fmt.Sprintf("//lint:allow names unknown check %q", a.check),
			})
		case a.reason == "":
			kept = append(kept, Diagnostic{
				File: a.file, Line: a.line, Col: 1, Check: BadDirective,
				Message: fmt.Sprintf("//lint:allow %s is missing a reason — every suppression must say why", a.check),
			})
		case !a.used:
			kept = append(kept, Diagnostic{
				File: a.file, Line: a.line, Col: 1, Check: BadDirective,
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing on this or the next line — stale directive", a.check),
			})
		}
	}
	return kept
}

// WriteText renders diagnostics one per line in the canonical
// "file:line: [check] message" form.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTextWhy is WriteText plus the -why explanation: diagnostics that
// carry an interprocedural chain print it indented on the following line as
// "why: entry → … → function", so the reader sees how the flagged code is
// reached from the module's API surface.
func WriteTextWhy(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
		if len(d.Chain) > 0 {
			if _, err := fmt.Fprintf(w, "    why: %s\n", strings.Join(d.Chain, " → ")); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders diagnostics as an indented, deterministic JSON array
// (empty slice, not null, when clean) — the -json contract.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(diags)
}

// InspectFiles walks every file of the pass's package with ast.Inspect.
func (p *Pass) InspectFiles(fn func(ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
