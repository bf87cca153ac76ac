// The summary walker: one source-ordered pass over each function body that
// simultaneously tracks order-taint (which locals carry map-iteration
// order), the lexical lock set (which receiver mutexes are held), and
// module call sites. The walk is per-package and self-contained;
// everything cross-package is deferred to the Set fixpoints.
//
// Known, deliberate approximations:
//   - taint is field-based (one tainted instance taints the field key
//     module-wide) and does not flow through function parameters;
//   - the lock simulation is lexical and linear: branches are merged
//     optimistically in source order, and lock/unlock helper methods
//     propagate only within their own package;
//   - embedded (unnamed) mutexes are not modeled.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"difftrace/internal/lint"
	"difftrace/internal/lint/callgraph"
)

// moduleIndex is the cross-package type index the walkers share: every
// named-struct field in the module keyed for taint, and the mutex topology
// for the lock simulation.
type moduleIndex struct {
	loaded     map[string]bool       // loaded package paths (the closed world)
	fieldKey   map[*types.Var]string // struct field object -> "pkg.Type.field"
	fieldOwner map[*types.Var]string // struct field object -> "pkg.Type"
	mutexKey   map[*types.Var]string // sync.Mutex/RWMutex fields only
	structMu   map[string][]string   // struct key -> its mutex keys
	guarded    map[*types.Var]bool   // fields whose accesses are recorded
}

func buildIndex(pkgs []*lint.Package) *moduleIndex {
	idx := &moduleIndex{
		loaded:     make(map[string]bool),
		fieldKey:   make(map[*types.Var]string),
		fieldOwner: make(map[*types.Var]string),
		mutexKey:   make(map[*types.Var]string),
		structMu:   make(map[string][]string),
		guarded:    make(map[*types.Var]bool),
	}
	for _, pkg := range pkgs {
		idx.loaded[pkg.Path] = true
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			structKey := pkg.Path + "." + tn.Name()
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				fkey := structKey + "." + f.Name()
				if isMutexType(f.Type()) {
					idx.mutexKey[f] = fkey
					idx.structMu[structKey] = append(idx.structMu[structKey], fkey)
				} else {
					idx.fieldKey[f] = fkey
					idx.fieldOwner[f] = structKey
				}
			}
		}
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			if len(idx.structMu[pkg.Path+"."+tn.Name()]) == 0 {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !isMutexType(f.Type()) {
					idx.guarded[f] = true
				}
			}
		}
	}
	return idx
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// pkgBuilder accumulates one package's summary.
type pkgBuilder struct {
	mp  *lint.ModulePass
	pkg *lint.Package
	idx *moduleIndex
	ps  *PkgSummary

	// lockExit maps a method key to the receiver mutex keys it leaves
	// locked at exit — the same-package lock-helper pre-pass.
	lockExit map[string][]string
}

func buildPkg(mp *lint.ModulePass, pkg *lint.Package, idx *moduleIndex) *PkgSummary {
	b := &pkgBuilder{
		mp:  mp,
		pkg: pkg,
		idx: idx,
		ps: &PkgSummary{
			Path: pkg.Path,
			Rel:  mp.PkgRel(pkg),
		},
		lockExit: make(map[string][]string),
	}
	b.scanMutexStructs()
	b.scanLockHelpers()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			b.walkFunc(callgraph.KeyOf(fn), fn.Type().(*types.Signature), fd.Body, nil)
		}
	}
	return b.ps
}

func (b *pkgBuilder) scanMutexStructs() {
	scope := b.pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		key := b.pkg.Path + "." + tn.Name()
		mus := b.idx.structMu[key]
		if len(mus) == 0 {
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		ms := MutexStruct{Type: key, Mutexes: mus}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); !isMutexType(f.Type()) {
				ms.Fields = append(ms.Fields, b.idx.fieldKey[f])
			}
		}
		b.ps.MutexStructs = append(b.ps.MutexStructs, ms)
	}
}

// scanLockHelpers computes, before the main walk, each method's
// lock-at-exit delta so same-package lock helpers (func (g *G) lock()
// { g.mu.Lock() }) extend the caller's lexical lock set.
func (b *pkgBuilder) scanLockHelpers() {
	for _, f := range b.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			fn, ok := b.pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recvName := ""
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvName = names[0].Name
			}
			if recvName == "" || recvName == "_" {
				continue
			}
			if delta := b.lockDelta(fd.Body, recvName); len(delta) > 0 {
				b.lockExit[callgraph.KeyOf(fn)] = delta
			}
		}
	}
}

// lockDelta simulates only the lock events of a body and returns the
// receiver mutex keys still held (not via defer) at exit.
func (b *pkgBuilder) lockDelta(body *ast.BlockStmt, recvName string) []string {
	held := make(map[string]bool)
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			mkey, base, op := b.lockEvent(x)
			if mkey == "" || base != recvName {
				return true
			}
			switch op {
			case "Lock", "RLock":
				if !deferred[x] {
					held[mkey] = true
				}
			case "Unlock", "RUnlock":
				delete(held, mkey) // deferred or not: released by exit
			}
		}
		return true
	})
	var out []string
	for k := range held {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockEvent decodes a call as a mutex operation: base.mu.Lock() returns
// (mutex key, base expression string, op name); anything else returns "".
func (b *pkgBuilder) lockEvent(call *ast.CallExpr) (mkey, base, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return "", "", ""
	}
	msel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fv := b.selectedField(msel)
	if fv == nil {
		return "", "", ""
	}
	mk, ok := b.idx.mutexKey[fv]
	if !ok {
		return "", "", ""
	}
	return mk, types.ExprString(msel.X), name
}

// selectedField resolves a selector to the struct field object it reads,
// or nil when it is not a field selection.
func (b *pkgBuilder) selectedField(sel *ast.SelectorExpr) *types.Var {
	s, ok := b.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// fieldOf is selectedField restricted to fields the index knows (any named
// module struct).
func (b *pkgBuilder) fieldOf(sel *ast.SelectorExpr) *types.Var {
	fv := b.selectedField(sel)
	if fv == nil {
		return nil
	}
	if _, ok := b.idx.fieldKey[fv]; !ok {
		return nil
	}
	return fv
}

func (b *pkgBuilder) staticCallee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := b.pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := b.pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func (b *pkgBuilder) pos(p token.Pos) Pos {
	file, line, col := b.mp.RelPosition(p)
	return Pos{File: file, Line: line, Col: col}
}

// heldLock is one entry of the lexical lock set.
type heldLock struct {
	key      string // mutex key
	base     string // owner expression ("g", "s.job")
	deferred bool   // released by defer: held through the rest of the body
}

// funcWalker simulates one function-like body in source order.
type funcWalker struct {
	b   *pkgBuilder
	fs  *FuncSummary
	sig *types.Signature

	taint    map[types.Object]map[string]bool
	held     []*heldLock
	deferred map[*ast.CallExpr]bool
	asyncLit map[*ast.FuncLit]bool // launched via go/defer: no lock inheritance
	writes   map[ast.Node]bool     // selector nodes in write position
	funIdent map[*ast.Ident]bool
	litN     int

	// mapRange is the innermost map range enclosing the walk position;
	// rangeAppends records x = append(x, ...) under one, and sorted the
	// objects handed to a sort, for the never-sorted-slice rule.
	mapRange     *ast.RangeStmt
	rangeAppends []rangeAppend
	sorted       map[types.Object]bool
}

// rangeAppend is one slice built element by element inside a map range.
type rangeAppend struct {
	slice types.Object
	rng   *ast.RangeStmt
}

// walkFunc simulates one function-like body. held seeds the lexical lock
// set: nil for declarations, the definition-point snapshot for function
// literals (a closure built inside a critical section runs under it unless
// launched with go/defer).
func (b *pkgBuilder) walkFunc(key string, sig *types.Signature, body *ast.BlockStmt, held []*heldLock) {
	fs := &FuncSummary{Key: key}
	w := &funcWalker{
		b:        b,
		fs:       fs,
		sig:      sig,
		held:     held,
		taint:    make(map[types.Object]map[string]bool),
		deferred: make(map[*ast.CallExpr]bool),
		asyncLit: make(map[*ast.FuncLit]bool),
		writes:   make(map[ast.Node]bool),
		funIdent: make(map[*ast.Ident]bool),
		sorted:   make(map[types.Object]bool),
	}
	if results := sig.Results(); results != nil {
		for i := 0; i < results.Len(); i++ {
			t := results.At(i).Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				if _, isStruct := n.Underlying().(*types.Struct); isStruct && n.Obj().Pkg() != nil {
					fs.Constructs = append(fs.Constructs, n.Obj().Pkg().Path()+"."+n.Obj().Name())
				}
			}
		}
	}
	b.ps.Funcs = append(b.ps.Funcs, fs)
	w.walk(body)
	w.unsortedAppends()
}

func (w *funcWalker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.litN++
			key := fmt.Sprintf("%s$%d", w.fs.Key, w.litN)
			if sig, ok := w.b.pkg.Info.TypeOf(x).(*types.Signature); ok {
				var inherit []*heldLock
				if !w.asyncLit[x] {
					inherit = w.snapshot()
				}
				w.b.walkFunc(key, sig, x.Body, inherit)
			}
			return false
		case *ast.IfStmt:
			w.handleIf(x)
			return false
		case *ast.SwitchStmt:
			w.handleBranches(clausesOf(x.Body), x.Init, x.Tag)
			return false
		case *ast.TypeSwitchStmt:
			w.handleBranches(clausesOf(x.Body), x.Init, x.Assign)
			return false
		case *ast.SelectStmt:
			w.handleBranches(clausesOf(x.Body))
			return false
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				w.asyncLit[lit] = true
			}
		case *ast.DeferStmt:
			w.deferred[x.Call] = true
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				w.asyncLit[lit] = true
			}
		case *ast.AssignStmt:
			w.handleAssign(x)
		case *ast.IncDecStmt:
			w.markWrite(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				w.markWrite(x.X)
			}
		case *ast.RangeStmt:
			if w.handleRange(x) {
				w.walkMapRange(x)
				return false
			}
		case *ast.SendStmt:
			w.handleSend(x)
		case *ast.ReturnStmt:
			w.handleReturn(x)
		case *ast.CallExpr:
			w.handleCall(x)
		case *ast.SelectorExpr:
			w.handleSelector(x)
		case *ast.Ident:
			w.handleIdent(x)
		}
		return true
	})
}

// walkMapRange walks a map range with the loop as the innermost map range,
// so sinks and appends in its body are attributed to map order.
func (w *funcWalker) walkMapRange(r *ast.RangeStmt) {
	for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
		if e != nil {
			w.walk(e)
		}
	}
	outer := w.mapRange
	w.mapRange = r
	w.walk(r.Body)
	w.mapRange = outer
}

// unsortedAppends records, once the whole body is walked, every slice
// appended to inside a map range and never sorted in this function: its
// element order is the map's, whether it is returned, printed, or only
// iterated here. The flow is placed at the innermost enclosing range.
func (w *funcWalker) unsortedAppends() {
	seen := make(map[rangeAppend]bool)
	for _, ra := range w.rangeAppends {
		if w.sorted[ra.slice] || seen[ra] {
			continue
		}
		seen[ra] = true
		w.b.ps.SinkFlows = append(w.b.ps.SinkFlows, SinkFlow{
			Source: "range",
			Sink:   fmt.Sprintf("slice %q (never sorted in this function)", ra.slice.Name()),
			Fn:     w.fs.Key,
			Pos:    w.b.pos(ra.rng.Pos()),
		})
	}
}

// snapshot deep-copies the lexical lock set so a branch can be simulated
// and rolled back without the branch's mutations leaking out.
func (w *funcWalker) snapshot() []*heldLock { return cloneHeld(w.held) }

func (w *funcWalker) restore(held []*heldLock) { w.held = held }

func cloneHeld(held []*heldLock) []*heldLock {
	out := make([]*heldLock, len(held))
	for i, h := range held {
		c := *h
		out[i] = &c
	}
	return out
}

// intersectHeld keeps locks present in both arms, matching on (key, base);
// a lock deferred-released in either arm stays deferred in the join.
func intersectHeld(a, b []*heldLock) []*heldLock {
	var out []*heldLock
	for _, ha := range a {
		for _, hb := range b {
			if ha.key == hb.key && ha.base == hb.base {
				c := *ha
				c.deferred = ha.deferred || hb.deferred
				out = append(out, &c)
				break
			}
		}
	}
	return out
}

// handleIf simulates both arms from the same entry state and joins the
// fall-through paths, so `if busy { mu.Unlock(); return }` leaves the lock
// held on the code after the if.
func (w *funcWalker) handleIf(s *ast.IfStmt) {
	if s.Init != nil {
		w.walk(s.Init)
	}
	w.walk(s.Cond)
	pre := w.snapshot()
	w.walk(s.Body)
	bodyHeld, bodyTerm := w.held, terminates(s.Body)
	elseHeld, elseTerm := pre, false
	if s.Else != nil {
		w.restore(cloneHeld(pre))
		w.walk(s.Else)
		elseHeld, elseTerm = w.held, stmtTerminates(s.Else)
	}
	switch {
	case bodyTerm && elseTerm:
		w.restore(pre)
	case bodyTerm:
		w.restore(elseHeld)
	case elseTerm:
		w.restore(bodyHeld)
	default:
		w.restore(intersectHeld(bodyHeld, elseHeld))
	}
}

// handleBranches simulates switch/type-switch/select clauses independently
// from the same entry state and joins the arms that fall through. With no
// surviving arm (every clause returns) the entry state carries forward: the
// zero-clause degenerate form behaves like a no-op.
func (w *funcWalker) handleBranches(clauses []ast.Stmt, pre ...ast.Node) {
	for _, p := range pre {
		if p != nil {
			w.walk(p)
		}
	}
	entry := w.snapshot()
	var outs [][]*heldLock
	for _, c := range clauses {
		w.restore(cloneHeld(entry))
		w.walk(c)
		if !clauseTerminates(c) {
			outs = append(outs, w.held)
		}
	}
	join := entry
	for i, o := range outs {
		if i == 0 {
			join = o
		} else {
			join = intersectHeld(join, o)
		}
	}
	w.restore(join)
}

func clausesOf(b *ast.BlockStmt) []ast.Stmt {
	if b == nil {
		return nil
	}
	return b.List
}

// terminates reports whether a block always transfers control away: its
// last statement returns, branches, or panics. Good enough for the lexical
// simulation; loops and gotos are out of scope.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	return stmtTerminates(b.List[len(b.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return x.Tok == token.BREAK || x.Tok == token.CONTINUE || x.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(x)
	case *ast.IfStmt:
		return terminates(x.Body) && x.Else != nil && stmtTerminates(x.Else)
	case *ast.LabeledStmt:
		return stmtTerminates(x.Stmt)
	}
	return false
}

func clauseTerminates(s ast.Stmt) bool {
	var body []ast.Stmt
	switch x := s.(type) {
	case *ast.CaseClause:
		body = x.Body
	case *ast.CommClause:
		body = x.Body
	default:
		return false
	}
	if len(body) == 0 {
		return false
	}
	return stmtTerminates(body[len(body)-1])
}

// markWrite unwraps index/star/paren layers and marks the underlying field
// selector, if any, as being in write position.
func (w *funcWalker) markWrite(e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			w.writes[x] = true
			return
		default:
			return
		}
	}
}

func (w *funcWalker) handleSelector(sel *ast.SelectorExpr) {
	fv := w.b.selectedField(sel)
	if fv == nil || !w.b.idx.guarded[fv] {
		return
	}
	fkey := w.b.idx.fieldKey[fv]
	w.b.ps.Accesses = append(w.b.ps.Accesses, FieldAccess{
		Field: fkey,
		Write: w.writes[sel],
		Held:  w.heldFor(sel, fv),
		Fn:    w.fs.Key,
		Pos:   w.b.pos(sel.Sel.Pos()),
	})
}

// heldFor returns the mutex keys lexically held for this access: entries
// whose owner expression matches the access base and whose mutex belongs
// to the accessed struct.
func (w *funcWalker) heldFor(sel *ast.SelectorExpr, fv *types.Var) []string {
	owner := w.b.idx.fieldOwner[fv]
	relevant := w.b.idx.structMu[owner]
	if len(relevant) == 0 {
		return nil
	}
	base := types.ExprString(sel.X)
	var out []string
	for _, h := range w.held {
		if h.base != base {
			continue
		}
		for _, m := range relevant {
			if h.key == m {
				out = append(out, h.key)
			}
		}
	}
	sort.Strings(out)
	return dedup(out)
}

func (w *funcWalker) addLock(key, base string) {
	for _, h := range w.held {
		if h.key == key && h.base == base {
			return
		}
	}
	w.held = append(w.held, &heldLock{key: key, base: base})
}

func (w *funcWalker) dropLock(key, base string, byDefer bool) {
	for i, h := range w.held {
		if h.key == key && h.base == base {
			if byDefer {
				h.deferred = true
			} else {
				w.held = append(w.held[:i], w.held[i+1:]...)
			}
			return
		}
	}
}

func (w *funcWalker) heldKeys() []string {
	var out []string
	for _, h := range w.held {
		out = append(out, h.key)
	}
	sort.Strings(out)
	return dedup(out)
}

func (w *funcWalker) handleCall(call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		w.funIdent[fun] = true
	case *ast.SelectorExpr:
		w.funIdent[fun.Sel] = true
	}

	if mkey, base, op := w.b.lockEvent(call); mkey != "" {
		switch op {
		case "Lock", "RLock":
			if !w.deferred[call] {
				w.addLock(mkey, base)
			}
		case "Unlock", "RUnlock":
			w.dropLock(mkey, base, w.deferred[call])
		}
		return
	}

	fn := w.b.staticCallee(call)
	if fn == nil {
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}

	// sort.* and slices.Sort* put their arguments into a deterministic
	// order: launder their taint, and count every object they mention as
	// sorted for the never-sorted-slice rule.
	if pkgPath == "sort" || (pkgPath == "slices" && strings.HasPrefix(fn.Name(), "Sort") &&
		!strings.HasPrefix(fn.Name(), "Sorted")) {
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := w.b.pkg.Info.Uses[id]; obj != nil {
					delete(w.taint, obj)
				}
			}
			ast.Inspect(a, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := w.b.pkg.Info.Uses[id]; obj != nil {
						w.sorted[obj] = true
					}
				}
				return true
			})
		}
		return
	}

	if w.b.idx.loaded[pkgPath] {
		ck := callgraph.KeyOf(fn)
		w.b.ps.CallSites = append(w.b.ps.CallSites, CallSite{
			Caller: w.fs.Key,
			Callee: ck,
			Held:   w.heldKeys(),
		})
		// Same-package lock helper: its exit locks join our lexical set,
		// owned by the call's receiver expression.
		if delta := w.b.lockExit[ck]; len(delta) > 0 && !w.deferred[call] {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				base := types.ExprString(sel.X)
				for _, m := range delta {
					w.addLock(m, base)
				}
			}
		}
	}

	if desc, writes := sinkName(fn); desc != "" {
		// A writing sink inside a map range emits in map order whatever
		// its arguments are; that one flow stands for their range sources.
		inRange := writes && w.mapRange != nil
		if inRange {
			w.b.ps.SinkFlows = append(w.b.ps.SinkFlows, SinkFlow{
				Source: "range",
				Sink:   desc,
				Fn:     w.fs.Key,
				Pos:    w.b.pos(call.Pos()),
			})
		}
		for _, a := range call.Args {
			for _, src := range sortedRefs(w.exprSources(a)) {
				if inRange && src == "range" {
					continue
				}
				w.b.ps.SinkFlows = append(w.b.ps.SinkFlows, SinkFlow{
					Source: src,
					Sink:   desc,
					Fn:     w.fs.Key,
					Pos:    w.b.pos(a.Pos()),
				})
			}
		}
	}
}

// handleIdent records bare references to module functions (method values,
// callbacks handed to schedulers) as empty-held call sites.
func (w *funcWalker) handleIdent(id *ast.Ident) {
	if w.funIdent[id] {
		return
	}
	fn, ok := w.b.pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !w.b.idx.loaded[fn.Pkg().Path()] {
		return
	}
	w.b.ps.CallSites = append(w.b.ps.CallSites, CallSite{
		Caller: w.fs.Key,
		Callee: callgraph.KeyOf(fn),
	})
}

func (w *funcWalker) handleAssign(a *ast.AssignStmt) {
	if w.mapRange != nil {
		for i, rhs := range a.Rhs {
			if id, ok := a.Lhs[i].(*ast.Ident); ok && w.isAppend(rhs) && w.objectOf(id) != nil {
				w.rangeAppends = append(w.rangeAppends, rangeAppend{w.objectOf(id), w.mapRange})
			}
		}
	}
	srcs := make([]map[string]bool, len(a.Lhs))
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		s := w.exprSources(a.Rhs[0])
		for i := range srcs {
			srcs[i] = s
		}
	} else {
		for i := range a.Lhs {
			if i < len(a.Rhs) {
				srcs[i] = w.exprSources(a.Rhs[i])
			}
		}
	}
	replace := a.Tok == token.ASSIGN || a.Tok == token.DEFINE
	for i, lhs := range a.Lhs {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				continue
			}
			obj := w.objectOf(x)
			if obj == nil || !orderable(obj.Type()) {
				continue
			}
			if replace {
				if len(srcs[i]) == 0 {
					delete(w.taint, obj)
				} else {
					w.taint[obj] = copySet(srcs[i])
				}
			} else {
				w.mergeTaint(obj, srcs[i])
			}
		case *ast.SelectorExpr:
			w.markWrite(x)
			if fv := w.b.fieldOf(x); fv != nil && len(srcs[i]) > 0 {
				fkey := w.b.idx.fieldKey[fv]
				for _, src := range sortedRefs(srcs[i]) {
					w.b.ps.TaintAssigns = append(w.b.ps.TaintAssigns, TaintAssign{
						Target: "field:" + fkey,
						From:   src,
						Fn:     w.fs.Key,
						Pos:    w.b.pos(x.Sel.Pos()),
					})
				}
			}
		default:
			// out[i] = k, *p = k: merge into the root object — a partial
			// write never clears taint.
			w.markWrite(lhs)
			if root := rootIdent(lhs); root != nil {
				if obj := w.b.pkg.Info.Uses[root]; obj != nil {
					w.mergeTaint(obj, srcs[i])
				}
			}
		}
	}
}

// handleRange seeds the loop variables' taint and reports whether the loop
// ranges over a map.
func (w *funcWalker) handleRange(r *ast.RangeStmt) (overMap bool) {
	t := w.b.pkg.Info.TypeOf(r.X)
	if t == nil {
		return false
	}
	var seed map[string]bool
	switch t.Underlying().(type) {
	case *types.Map:
		seed = map[string]bool{"range": true}
		overMap = true
	case *types.Chan:
		if sel, ok := ast.Unparen(r.X).(*ast.SelectorExpr); ok {
			if fv := w.b.fieldOf(sel); fv != nil {
				seed = map[string]bool{"chan:" + w.b.idx.fieldKey[fv]: true}
				break
			}
		}
		seed = w.exprSources(r.X)
	default:
		seed = w.exprSources(r.X)
	}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if e == nil {
			continue
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := w.objectOf(id); obj != nil && orderable(obj.Type()) {
			w.taint[obj] = copySet(seed)
		}
	}
	return overMap
}

func (w *funcWalker) handleSend(s *ast.SendStmt) {
	srcs := w.exprSources(s.Value)
	if len(srcs) == 0 {
		return
	}
	switch ch := ast.Unparen(s.Chan).(type) {
	case *ast.SelectorExpr:
		if fv := w.b.fieldOf(ch); fv != nil {
			fkey := w.b.idx.fieldKey[fv]
			for _, src := range sortedRefs(srcs) {
				w.b.ps.TaintAssigns = append(w.b.ps.TaintAssigns, TaintAssign{
					Target: "chan:" + fkey,
					From:   src,
					Fn:     w.fs.Key,
					Pos:    w.b.pos(s.Arrow),
				})
			}
		}
	case *ast.Ident:
		if obj := w.b.pkg.Info.Uses[ch]; obj != nil {
			w.mergeTaint(obj, srcs)
		}
	}
}

func (w *funcWalker) handleReturn(r *ast.ReturnStmt) {
	collect := func(srcs map[string]bool) {
		for _, src := range sortedRefs(srcs) {
			if src == "range" {
				w.fs.UnorderedLocal = true
			} else {
				w.fs.ReturnDeps = appendUnique(w.fs.ReturnDeps, src)
			}
		}
	}
	if len(r.Results) == 0 {
		// Bare return with named results: report their current taint.
		if results := w.sig.Results(); results != nil {
			for i := 0; i < results.Len(); i++ {
				collect(w.taint[results.At(i)])
			}
		}
		return
	}
	for _, e := range r.Results {
		collect(w.exprSources(e))
	}
}

// exprSources computes the order-taint sources an expression's value
// carries: "range" for direct map iteration, and call/field/chan refs the
// module fixpoint resolves later.
func (w *funcWalker) exprSources(e ast.Expr) map[string]bool {
	switch x := e.(type) {
	case *ast.Ident:
		return w.taint[w.objectOf(x)]
	case *ast.SelectorExpr:
		if fv := w.b.fieldOf(x); fv != nil {
			return map[string]bool{"field:" + w.b.idx.fieldKey[fv]: true}
		}
		return nil
	case *ast.CallExpr:
		return w.callSources(x)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
				if fv := w.b.fieldOf(sel); fv != nil {
					return map[string]bool{"chan:" + w.b.idx.fieldKey[fv]: true}
				}
			}
		}
		return w.exprSources(x.X)
	case *ast.CompositeLit:
		out := make(map[string]bool)
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			mergeInto(out, w.exprSources(el))
		}
		return out
	case *ast.IndexExpr:
		return w.exprSources(x.X)
	case *ast.SliceExpr:
		return w.exprSources(x.X)
	case *ast.StarExpr:
		return w.exprSources(x.X)
	case *ast.ParenExpr:
		return w.exprSources(x.X)
	case *ast.BinaryExpr:
		out := make(map[string]bool)
		mergeInto(out, w.exprSources(x.X))
		mergeInto(out, w.exprSources(x.Y))
		return out
	case *ast.TypeAssertExpr:
		return w.exprSources(x.X)
	}
	return nil
}

func (w *funcWalker) callSources(call *ast.CallExpr) map[string]bool {
	fn := w.b.staticCallee(call)
	if fn == nil {
		// Builtin, conversion, or function-value call: propagate argument
		// sources (append, []string(x), fn(x) all preserve order-taint).
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "len", "cap", "make", "new", "min", "max":
				if w.b.pkg.Info.Uses[id] == nil || w.b.pkg.Info.Uses[id].Parent() == types.Universe {
					return nil
				}
			}
		}
		out := make(map[string]bool)
		for _, a := range call.Args {
			mergeInto(out, w.exprSources(a))
		}
		return out
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case pkgPath == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values"):
		return map[string]bool{"range": true}
	case (pkgPath == "slices" || pkgPath == "sort") && strings.HasPrefix(fn.Name(), "Sorted"):
		return nil // slices.Sorted(maps.Keys(m)) launders the order
	case pkgPath == "sort" || pkgPath == "slices":
		return nil
	case w.b.idx.loaded[pkgPath]:
		return map[string]bool{"call:" + callgraph.KeyOf(fn): true}
	}
	out := make(map[string]bool)
	for _, a := range call.Args {
		mergeInto(out, w.exprSources(a))
	}
	return out
}

func (w *funcWalker) mergeTaint(obj types.Object, srcs map[string]bool) {
	if len(srcs) == 0 || !orderable(obj.Type()) {
		return
	}
	if w.taint[obj] == nil {
		w.taint[obj] = make(map[string]bool)
	}
	mergeInto(w.taint[obj], srcs)
}

// sinkName classifies a callee as an ordered sink: a point where element
// order becomes observable output. writes reports whether the call itself
// emits (fmt printing, Write*/Encode/Absorb methods), so that calling it
// in map order leaks that order whatever it is handed; a marshaller only
// preserves the order of the value it encodes.
func sinkName(fn *types.Func) (desc string, writes bool) {
	name := fn.Name()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if pkgPath == "fmt" {
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return "fmt." + name, true
		}
		return "", false
	}
	if pkgPath == "encoding/json" && (name == "Marshal" || name == "MarshalIndent") {
		return "json." + name, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Absorb":
			return fn.FullName(), true
		}
	}
	return "", false
}

// isAppend reports whether e calls the append builtin, not a shadowing
// declaration.
func (w *funcWalker) isAppend(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = w.b.pkg.Info.Uses[id].(*types.Builtin)
	return ok
}

func (w *funcWalker) objectOf(id *ast.Ident) types.Object {
	if obj := w.b.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return w.b.pkg.Info.Defs[id]
}

// orderable reports whether a value of this type can carry element order
// worth tracking. Scalars and errors are excluded to keep taint sparse.
func orderable(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map, *types.Chan, *types.Interface:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.TypeParam:
		return true
	}
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	return false
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func mergeInto(dst, src map[string]bool) {
	for k := range src {
		dst[k] = true
	}
}

func sortedRefs(s map[string]bool) []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func dedup(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
