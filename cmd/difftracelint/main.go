// difftracelint runs the project-invariant static analyzer over every
// package in the module and reports violations of the determinism, panic,
// and concurrency discipline the DiffTrace pipeline depends on.
//
//	go run ./cmd/difftracelint ./...          # text diagnostics, exit 1 on findings
//	go run ./cmd/difftracelint -json ./...    # machine-readable JSON array
//	go run ./cmd/difftracelint -why ./...     # text plus interprocedural call chains
//	go run ./cmd/difftracelint -graph         # dump the module call graph and exit
//	go run ./cmd/difftracelint -list          # registered checks and their invariants
//	go run ./cmd/difftracelint -checks orderflow,errwrap ./...
//
// The package pattern argument is accepted for familiarity but the tool
// always analyzes the whole module: the invariants are module-wide (a naked
// goroutine is a violation wherever it hides), and whole-module loading is
// what lets the config table express "only internal/pool may do X".
//
// Exit codes: 0 clean, 1 unsuppressed diagnostics, 2 load/usage error.
// Suppress a single finding with `//lint:allow check-name reason` on the
// offending line or the line above; suppress a package subtree by editing
// the table in internal/lint/config.go. See DESIGN.md §9 and §14.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"difftrace/internal/lint"
	"difftrace/internal/lint/callgraph"
	"difftrace/internal/lint/checks"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("difftracelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array instead of file:line text")
	why := fs.Bool("why", false, "follow each interprocedural finding with the call chain that makes it reachable")
	graph := fs.Bool("graph", false, "dump the module call graph (one 'caller -> callee' line per edge) and exit")
	sel := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list registered checks and exit")
	dir := fs.String("C", ".", "directory whose enclosing module is analyzed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	active := checks.All()
	if *sel != "" {
		var err error
		active, err = checks.ByName(strings.Split(*sel, ","))
		if err != nil {
			fmt.Fprintln(stderr, "difftracelint:", err)
			return 2
		}
	}
	if *list {
		for _, c := range active {
			fmt.Fprintf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "difftracelint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "difftracelint:", err)
		return 2
	}

	if *graph {
		if err := callgraph.Build(pkgs).Dump(stdout); err != nil {
			fmt.Fprintln(stderr, "difftracelint:", err)
			return 2
		}
		return 0
	}

	diags := lint.NewRunner(active, lint.ProjectConfig(), loader.ModRoot).Run(pkgs)

	write := lint.WriteText
	if *why {
		write = lint.WriteTextWhy
	}
	if *jsonOut {
		write = lint.WriteJSON
	}
	if err := write(stdout, diags); err != nil {
		fmt.Fprintln(stderr, "difftracelint:", err)
		return 2
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "difftracelint: %d finding(s) across %d package(s), %d check(s)\n",
			len(diags), len(pkgs), len(active))
		return 1
	}
	return 0
}
