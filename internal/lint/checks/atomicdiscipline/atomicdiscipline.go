// Package atomicdiscipline enforces all-or-nothing atomicity: a word that
// is accessed atomically is never read or written plainly. A plain load
// races with an atomic add exactly as it would with a plain store — the Go
// memory model gives mixed access no ordering at all — and the resulting
// torn or stale reads are the schedule-dependent class of bug this module
// exists to catch in traces.
//
// The invariant holds by type. sync/atomic's function API
// (atomic.AddInt64(&s.n, 1), atomic.LoadInt64, ...) is the only way to mix
// atomic and plain access to one word, so the check bans it: shared words
// are typed atomics (atomic.Int64, atomic.Bool, atomic.Pointer[T], ...),
// whose methods are the only access they allow, and go vet's copylocks
// check rejects copying one.
package atomicdiscipline

import (
	"go/ast"
	"go/types"

	"difftrace/internal/lint"
)

// Check is the registered atomicdiscipline analyzer.
var Check = &lint.Check{
	Name: "atomicdiscipline",
	Doc:  "shared words are typed atomics: sync/atomic's function API, which lets atomic and plain access mix, is never used",
	Run:  run,
}

func run(p *lint.Pass) {
	p.InspectFiles(func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// Typed-atomic methods have a receiver and pass.
		fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
			p.Reportf(id.Pos(),
				"atomic.%s lets atomic and plain access mix on one word — use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)",
				fn.Name())
		}
		return true
	})
}
