// Package callgraph builds difftracelint's module-wide call graph: one
// node per declared function, method, and function literal across every
// loaded package, with an edge wherever one function statically references
// another. It is the spine of the interprocedural engine — summaries
// compose along its edges, reachability anchors the lock-discipline check
// to the module's real API surface, and -why renders its BFS chains.
//
// The graph is deliberately a static over-approximation in both
// directions at once:
//
//   - edges are REFERENCES, not only calls: passing s.work to pool.Do adds
//     an edge even though the call happens inside the pool, which is
//     exactly what reachability wants;
//   - dynamic dispatch through interfaces is not resolved (an interface
//     method call adds no edge to its implementations). Exported methods
//     are reachability roots themselves, so the approximation loses little
//     in a module whose concurrency all flows through concrete types.
//
// Nodes are keyed by types.Func.FullName — "pkg/path.Fn" for functions,
// "(*pkg/path.T).M" for methods — with "$n" suffixes for function literals
// in source order, matching the keys the summary layer serializes.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"sort"

	"difftrace/internal/lint"
)

// Node is one function-like declaration in the module.
type Node struct {
	Key      string
	Pkg      *lint.Package
	Exported bool    // reachability root: exported name, main.main, or init
	Calls    []*Edge // outgoing references in source order
}

// Edge is one static reference from Caller to Callee.
type Edge struct {
	Caller *Node
	Callee *Node
}

// Graph is the module-wide call graph plus its reachability closure.
type Graph struct {
	ByKey map[string]*Node
	nodes []*Node // insertion order: sorted packages, then source order
	reach map[string]bool
	prev  map[string]*Edge // BFS tree edge into each reachable node
}

// KeyOf returns fn's stable node key. Generic instantiations normalize to
// their origin declaration so one summary covers every instantiation.
func KeyOf(fn *types.Func) string { return fn.Origin().FullName() }

// For returns the run's memoized graph, building it on first use.
func For(mp *lint.ModulePass) *Graph {
	return mp.Fact("callgraph", func() any { return Build(mp.Pkgs) }).(*Graph)
}

// Build constructs the graph over the given packages. The packages must
// share one loader universe (same FileSet, same types.Object identity for
// the same declaration), which is what Loader.LoadModule guarantees.
func Build(pkgs []*lint.Package) *Graph {
	g := &Graph{ByKey: make(map[string]*Node)}

	// Pass 1: a node per declared function/method, so references resolve
	// regardless of declaration order across packages.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.add(&Node{
					Key:      KeyOf(fn),
					Pkg:      pkg,
					Exported: isRoot(pkg, fd),
				})
			}
		}
	}

	// Pass 2: walk bodies, attributing references to the innermost
	// enclosing function-like node (literals get child nodes).
	for _, pkg := range pkgs {
		lits := make(map[string]int)
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
				g.walk(pkg, g.ByKey[KeyOf(fn)], fd.Body, lits)
			}
		}
	}

	g.computeReach()
	return g
}

func (g *Graph) add(n *Node) {
	if _, ok := g.ByKey[n.Key]; ok {
		return
	}
	g.ByKey[n.Key] = n
	g.nodes = append(g.nodes, n)
}

func (g *Graph) edge(from, to *Node) {
	from.Calls = append(from.Calls, &Edge{Caller: from, Callee: to})
}

// walk records references out of cur, descending into function literals as
// their own nodes (keyed cur.Key + "$n" in source order).
func (g *Graph) walk(pkg *lint.Package, cur *Node, body ast.Node, lits map[string]int) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lits[cur.Key]++
			ln := &Node{
				Key: fmt.Sprintf("%s$%d", cur.Key, lits[cur.Key]),
				Pkg: pkg,
			}
			g.add(ln)
			g.edge(cur, ln)
			g.walk(pkg, ln, x.Body, lits)
			return false
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				if callee, ok := g.ByKey[KeyOf(fn)]; ok {
					g.edge(cur, callee)
				}
			}
		}
		return true
	})
}

// isRoot classifies a declaration as a reachability root: part of the
// module's own entry surface.
func isRoot(pkg *lint.Package, fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	if fd.Name.IsExported() {
		return true
	}
	if name == "init" && fd.Recv == nil {
		return true
	}
	return pkg.Types != nil && pkg.Types.Name() == "main" && name == "main" && fd.Recv == nil
}

// computeReach runs a deterministic BFS from every root, recording the
// first-visit tree so chains replay identically across runs.
func (g *Graph) computeReach() {
	g.reach = make(map[string]bool)
	g.prev = make(map[string]*Edge)
	var roots []*Node
	for _, n := range g.nodes {
		if n.Exported {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Key < roots[j].Key })
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if !g.reach[r.Key] {
			g.reach[r.Key] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Calls {
			if !g.reach[e.Callee.Key] {
				g.reach[e.Callee.Key] = true
				g.prev[e.Callee.Key] = e
				queue = append(queue, e.Callee)
			}
		}
	}
}

// ReachableFromExported reports whether the function with the given key is
// reachable from the module's entry surface (or is itself part of it).
func (g *Graph) ReachableFromExported(key string) bool { return g.reach[key] }

// ChainFromExported returns the BFS path of node keys from an entry point
// to key (inclusive at both ends), or nil when key is unreachable. A root's
// own chain is just [key].
func (g *Graph) ChainFromExported(key string) []string {
	if !g.reach[key] {
		return nil
	}
	var rev []string
	for k := key; ; {
		rev = append(rev, k)
		e, ok := g.prev[k]
		if !ok {
			break
		}
		k = e.Caller.Key
	}
	chain := make([]string, len(rev))
	for i, k := range rev {
		chain[len(rev)-1-i] = k
	}
	return chain
}

// Dump writes the graph as deterministic text: one "caller -> callee" line
// per distinct edge, sorted, with reachability roots marked. This is the
// -graph output.
func (g *Graph) Dump(w io.Writer) error {
	keys := make([]string, 0, len(g.ByKey))
	for k := range g.ByKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := g.ByKey[k]
		mark := ""
		if n.Exported {
			mark = " [root]"
		}
		if _, err := fmt.Fprintf(w, "%s%s\n", k, mark); err != nil {
			return err
		}
		seen := make(map[string]bool)
		var callees []string
		for _, e := range n.Calls {
			if !seen[e.Callee.Key] {
				seen[e.Callee.Key] = true
				callees = append(callees, e.Callee.Key)
			}
		}
		sort.Strings(callees)
		for _, c := range callees {
			if _, err := fmt.Fprintf(w, "  -> %s\n", c); err != nil {
				return err
			}
		}
	}
	return nil
}
