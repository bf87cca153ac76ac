// Package ctxdiscipline proves the cancellation-plumbing invariant that
// makes difftraced's deadlines trustworthy: a context must FLOW — from
// main, through every call signature, down to the resumable reader loops
// — never be minted mid-pipeline, parked in a struct, or dropped.
//
// Four rules, all type-checker-resolved:
//
//  1. context.Background()/context.TODO() may be called only in package
//     main (the process entry points that legitimately own a root ctx).
//     Library code takes ctx from its caller; the repo's nil-ctx wrapper
//     convention (DiffRun → DiffRunContext(nil, ...)) exists precisely so
//     legacy entry points need no Background() either.
//  2. When a function takes a context.Context, it is the first parameter
//     (after the receiver) — the Go API convention that keeps call sites
//     grep-able and wrappers mechanical.
//  3. context.Context never lives in a struct field. A stored ctx
//     outlives the call it belongs to, silently decoupling cancellation
//     from the work it is supposed to bound (store the CancelFunc if a
//     type must trigger cancellation later).
//  4. A function whose own signature takes a ctx never calls the ctx-less
//     X of a module API that has an XContext sibling taking one. A few
//     operations keep both names because the benchmark module calls both;
//     calling the bare name while holding a real ctx stops the caller's
//     deadline one frame down. A function literal is its own scope: the
//     rule reads its signature, not the enclosing one's. No sibling, no
//     finding — calling a genuinely ctx-free helper is normal, and only
//     module APIs count (exec.Command beside exec.CommandContext is fine).
//
// Test files are exempt by construction (the loader only binds invariants
// to shipped code), so tests may use context.Background freely.
package ctxdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"difftrace/internal/lint"
)

// Check is the registered ctxdiscipline analyzer.
var Check = &lint.Check{
	Name: "ctxdiscipline",
	Doc:  "contexts flow: Background/TODO only in package main, ctx is the first parameter, no struct stores a Context, and a ctx holder never calls X where XContext exists",
	Run:  run,
}

func run(p *lint.Pass) {
	isMain := p.Pkg.Types != nil && p.Pkg.Types.Name() == "main"
	p.InspectFiles(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isMain {
				return true
			}
			if name, ok := p.PkgFuncCall(n, "context"); ok && (name == "Background" || name == "TODO") {
				p.Reportf(n.Pos(),
					"context.%s outside package main — accept ctx from the caller (use the nil-ctx wrapper convention for legacy entry points)",
					name)
			}
		case *ast.FuncType:
			// One case covers declarations, literals, interface methods,
			// and func-typed expressions: ast.Inspect visits each
			// FuncType node exactly once.
			checkParams(p, n)
		case *ast.StructType:
			for _, f := range n.Fields.List {
				if isCtxType(p.TypeOf(f.Type)) {
					p.Reportf(f.Pos(),
						"context.Context stored in a struct field — contexts flow through call stacks, not object graphs; store the CancelFunc instead")
				}
			}
		case *ast.FuncDecl:
			if fn, ok := p.Pkg.Info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
				checkSiblings(p, fn.FullName(), fn.Type(), n.Body)
			}
		case *ast.FuncLit:
			checkSiblings(p, "func literal", p.TypeOf(n), n.Body)
		}
		return true
	})
}

// checkParams flags context.Context parameters that are not in first
// position.
func checkParams(p *lint.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	pos := 0
	for _, f := range ft.Params.List {
		width := len(f.Names)
		if width == 0 {
			width = 1
		}
		if pos > 0 && isCtxType(p.TypeOf(f.Type)) {
			p.Reportf(f.Pos(),
				"context.Context is parameter %d — ctx goes first, so wrappers and call sites stay mechanical",
				pos+1)
		}
		pos += width
	}
}

// checkSiblings applies rule 4 to one function-like body named holder:
// when its own signature t takes a ctx, every call in the body (nested
// literals excluded, the walk reaches them on its own) to a ctx-less
// module function with a Context sibling is reported.
func checkSiblings(p *lint.Pass, holder string, t types.Type, body *ast.BlockStmt) {
	sig, ok := t.(*types.Signature)
	if !ok || !takesCtx(sig) {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if callee, sib := dropsCtx(p, n); sib != nil {
				p.Reportf(n.Pos(),
					"%s holds a ctx but calls %s, which drops it — call %s to keep cancellation flowing",
					holder, callee.FullName(), sib.FullName())
			}
		}
		return true
	})
}

// dropsCtx resolves call to a ctx-less module function and returns it with
// its Context-taking sibling, or a nil sibling when the call passes a ctx,
// the callee takes one, or no such sibling exists.
func dropsCtx(p *lint.Pass, call *ast.CallExpr) (callee, sib *types.Func) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, ok := p.Pkg.Info.Uses[id].(*types.Func)
	if !ok || !inModule(p, fn.Pkg()) {
		return nil, nil
	}
	fn = fn.Origin()
	sig := fn.Type().(*types.Signature)
	if takesCtx(sig) {
		return nil, nil
	}
	for _, a := range call.Args {
		if isCtxType(p.TypeOf(a)) {
			return nil, nil
		}
	}
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), fn.Name()+"Context")
	} else {
		obj = fn.Pkg().Scope().Lookup(fn.Name() + "Context")
	}
	if s, ok := obj.(*types.Func); ok && takesCtx(s.Type().(*types.Signature)) {
		return fn, s
	}
	return nil, nil
}

// inModule reports whether pkg belongs to the module being linted.
func inModule(p *lint.Pass, pkg *types.Package) bool {
	mod := p.Pkg.ModulePath
	return pkg != nil && mod != "" && (pkg.Path() == mod || strings.HasPrefix(pkg.Path(), mod+"/"))
}

// takesCtx reports whether any parameter of sig is a context.Context.
func takesCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isCtxType is true only for the real context.Context, never a same-named
// local type.
func isCtxType(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}
