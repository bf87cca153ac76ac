// Small type-aware AST helpers shared by the checks. They live in the
// framework package so every check resolves "is this fmt.Println or a local
// shadow?" the same way — through the type checker, never by spelling.
package lint

import (
	"go/ast"
	"go/types"
)

// PkgFuncCall reports whether call is a selector call on a package whose
// import path is pkgPath (e.g. time.Now, sort.Strings), returning the
// function name. Aliased imports resolve correctly because the receiver
// identifier is looked up as a *types.PkgName.
func (p *Pass) PkgFuncCall(call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// IsBuiltinCall reports whether call invokes the named builtin (panic,
// append, ...), resolved through the type checker so shadowed names don't
// count.
func (p *Pass) IsBuiltinCall(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

// TypeOf is Info.TypeOf with the pass's package bound.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (use or def).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.Uses[id]; o != nil {
		return o
	}
	return p.Pkg.Info.Defs[id]
}

// ErrorType is the predeclared error interface type.
var ErrorType = types.Universe.Lookup("error").Type()
