// Package summary computes difftracelint's per-function summaries: for
// every function, method, and function literal in the module, a small
// record of the facts the interprocedural checks compose — whether its
// returns carry map-iteration order, which context parameter it accepts
// and whether it forwards it, which mutexes it still holds at exit, and
// which struct fields it touches under which locks.
//
// Summaries are built package by package and then closed under two
// module-wide fixpoints:
//
//   - ORDER: a function is "unordered" when its returns depend on map
//     iteration directly or through any chain of module calls, tainted
//     struct fields, or tainted channel fields;
//   - LOCKS: a function is "always called with mutex M held" when every
//     recorded call site holds M, either locally or by the same induction
//     on its own callers (a greatest fixpoint, so mutual recursion settles
//     on the sound side).
//
// The analysis is field-based, not instance-based: taint and lock facts
// attach to "pkg/path.Type.field" keys, so one tainted instance taints the
// field everywhere. That over-approximation keeps summaries composable;
// checks temper it with reachability and majority votes.
package summary

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"difftrace/internal/lint"
)

// Pos is a module-relative source position, the coordinate diagnostics
// are reported at.
type Pos struct {
	File string
	Line int
	Col  int
}

// CallNoCtx records a call to a module function that accepts no Context,
// made from a function that has one in scope.
type CallNoCtx struct {
	Callee string
	Pos    Pos
}

// FuncSummary is the per-function record. Key matches the callgraph node
// key (types.Func.FullName, with "$n" suffixes for literals).
type FuncSummary struct {
	Key            string
	CtxParam       int      // index of the context.Context parameter, -1 if none
	ForwardsCtx    bool     // passes its ctx parameter onward at least once
	UnorderedLocal bool     // returns map-iteration-ordered data directly
	ReturnDeps     []string // source refs its returns depend on
	LocksAtExit    []string // receiver mutexes still held on return
	Constructs     []string // struct keys appearing in its results
	CallsNoCtx     []CallNoCtx
}

// FieldAccess is one plain (non-atomic) access to a field of a
// mutex-carrying or atomically-used struct.
type FieldAccess struct {
	Field string // "pkg/path.Type.field"
	Write bool
	Held  []string // mutex keys held at the access, same base
	Fn    string   // containing function key
	Pos   Pos
}

// AtomicUse is one access to a field through sync/atomic.
type AtomicUse struct {
	Field string
	Fn    string
	Pos   Pos
}

// SinkFlow records order-tainted data reaching an ordered sink (an output,
// a hash, an encoder) inside one function. Source "range" is map iteration
// in the same function: a range key or value reaching the sink, a writing
// sink called inside a map-range body whatever it writes, or a slice
// appended to inside one and never sorted in the function (Sink then
// names the slice).
type SinkFlow struct {
	Source string // "range" | "call:K" | "field:F" | "chan:F"
	Sink   string // human-readable sink name, e.g. "fmt.Fprintf"
	Fn     string
	Pos    Pos
}

// TaintAssign records order-tainted data flowing into a struct field or a
// channel field, extending the taint across function boundaries.
type TaintAssign struct {
	Target string // "field:F" | "chan:F"
	From   string // source ref
	Fn     string
	Pos    Pos
}

// CallSite is one static reference from Caller to a module function.
// Held lists the mutex keys lexically held at the site; a bare reference
// (a function value escaping to a scheduler) records an empty Held, which
// correctly poisons the LOCKS fixpoint for that callee.
type CallSite struct {
	Caller string
	Callee string
	Held   []string
}

// MutexStruct describes a struct type that embeds at least one named
// sync.Mutex/sync.RWMutex field.
type MutexStruct struct {
	Type    string   // "pkg/path.Type"
	Mutexes []string // mutex field keys
	Fields  []string // sibling data field keys
}

// PkgSummary is everything the walker extracted from one package.
type PkgSummary struct {
	Path string
	Rel  string // module-relative package dir, the Exempt/Only coordinate

	Funcs        []*FuncSummary
	Accesses     []FieldAccess
	Atomics      []AtomicUse
	MutexStructs []MutexStruct
	SinkFlows    []SinkFlow
	TaintAssigns []TaintAssign
	CallSites    []CallSite
}

// Set is the module-wide collection of package summaries plus the two
// fixpoint closures checks query.
type Set struct {
	Pkgs []*PkgSummary

	byFunc        map[string]*FuncSummary
	unorderedFn   map[string]bool
	taintedFields map[string]bool
	taintedChans  map[string]bool
	heldAlways    map[string][]string
}

// For returns the run's memoized summary set, building it on first use.
func For(mp *lint.ModulePass) *Set {
	return mp.Fact("summary", func() any { return Build(mp) }).(*Set)
}

// Build walks every loaded package and closes the module fixpoints.
func Build(mp *lint.ModulePass) *Set {
	idx := buildIndex(mp.Pkgs)
	s := &Set{Pkgs: make([]*PkgSummary, len(mp.Pkgs))}
	for i, pkg := range mp.Pkgs {
		s.Pkgs[i] = buildPkg(mp, pkg, idx)
	}
	s.finish()
	return s
}

// Func returns the summary for the function with the given key, or nil.
func (s *Set) Func(key string) *FuncSummary { return s.byFunc[key] }

// ResolveUnordered reports whether a source ref carries map-iteration
// order under the closed fixpoint.
func (s *Set) ResolveUnordered(ref string) bool {
	switch {
	case ref == "range":
		return true
	case strings.HasPrefix(ref, "call:"):
		return s.unorderedFn[ref[len("call:"):]]
	case strings.HasPrefix(ref, "field:"):
		return s.taintedFields[ref[len("field:"):]]
	case strings.HasPrefix(ref, "chan:"):
		return s.taintedChans[ref[len("chan:"):]]
	}
	return false
}

// HeldAlways returns the mutex keys held at every recorded call site of
// the function (the LOCKS fixpoint), sorted. Exported functions always
// return nil: the module boundary makes no promises.
func (s *Set) HeldAlways(fnKey string) []string { return s.heldAlways[fnKey] }

// DescribeSource renders a source ref for diagnostics.
func (s *Set) DescribeSource(ref string) string {
	switch {
	case ref == "range":
		return "map iteration"
	case strings.HasPrefix(ref, "call:"):
		return "the map-iteration-ordered return of " + ref[len("call:"):]
	case strings.HasPrefix(ref, "field:"):
		return "field " + ref[len("field:"):] + ", which is assigned in map iteration order"
	case strings.HasPrefix(ref, "chan:"):
		return "channel field " + ref[len("chan:"):] + ", which is fed in map iteration order"
	}
	return ref
}

// finish closes the ORDER and LOCKS fixpoints over the package summaries.
func (s *Set) finish() {
	s.byFunc = make(map[string]*FuncSummary)
	s.unorderedFn = make(map[string]bool)
	s.taintedFields = make(map[string]bool)
	s.taintedChans = make(map[string]bool)
	for _, ps := range s.Pkgs {
		for _, f := range ps.Funcs {
			s.byFunc[f.Key] = f
		}
	}

	// ORDER: iterate to a least fixpoint. Both maps only grow, and each
	// round either grows one of them or terminates, so this is linear in
	// practice and bounded by the number of facts.
	resolve := func(ref string) bool { return s.ResolveUnordered(ref) }
	for changed := true; changed; {
		changed = false
		for _, ps := range s.Pkgs {
			for _, f := range ps.Funcs {
				if s.unorderedFn[f.Key] {
					continue
				}
				u := f.UnorderedLocal
				for _, dep := range f.ReturnDeps {
					if u {
						break
					}
					u = resolve(dep)
				}
				if u {
					s.unorderedFn[f.Key] = true
					changed = true
				}
			}
			for _, ta := range ps.TaintAssigns {
				if !resolve(ta.From) {
					continue
				}
				switch {
				case strings.HasPrefix(ta.Target, "field:"):
					if k := ta.Target[len("field:"):]; !s.taintedFields[k] {
						s.taintedFields[k] = true
						changed = true
					}
				case strings.HasPrefix(ta.Target, "chan:"):
					if k := ta.Target[len("chan:"):]; !s.taintedChans[k] {
						s.taintedChans[k] = true
						changed = true
					}
				}
			}
		}
	}

	s.finishHeldAlways()
}

// finishHeldAlways computes the LOCKS greatest fixpoint: start every
// eligible function at the full mutex universe and narrow by intersecting
// over its call sites until stable. Eligible means unexported and not a
// literal — anything callable from outside the module, or invocable
// through a context the walker cannot see, starts (and stays) empty.
func (s *Set) finishHeldAlways() {
	universe := make(map[string]bool)
	for _, ps := range s.Pkgs {
		for _, ms := range ps.MutexStructs {
			for _, m := range ms.Mutexes {
				universe[m] = true
			}
		}
	}
	sites := make(map[string][]CallSite)
	for _, ps := range s.Pkgs {
		for _, cs := range ps.CallSites {
			sites[cs.Callee] = append(sites[cs.Callee], cs)
		}
	}
	cur := make(map[string]map[string]bool)
	for callee := range sites {
		f := s.byFunc[callee]
		if f == nil || exportedKey(callee) || strings.Contains(callee, "$") {
			continue
		}
		all := make(map[string]bool, len(universe))
		for m := range universe {
			all[m] = true
		}
		cur[callee] = all
	}
	get := func(key string) map[string]bool { return cur[key] } // nil = empty
	for changed := true; changed; {
		changed = false
		for callee, have := range cur {
			for _, site := range sites[callee] {
				avail := make(map[string]bool, len(site.Held))
				for _, m := range site.Held {
					avail[m] = true
				}
				for m := range get(site.Caller) {
					avail[m] = true
				}
				for m := range have {
					if !avail[m] {
						delete(have, m)
						changed = true
					}
				}
			}
		}
	}
	s.heldAlways = make(map[string][]string, len(cur))
	for key, set := range cur {
		if len(set) == 0 {
			continue
		}
		ms := make([]string, 0, len(set))
		for m := range set {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		s.heldAlways[key] = ms
	}
}

// exportedKey reports whether a function key names an exported function or
// method (the identifier after the last dot starts with an upper-case
// letter).
func exportedKey(key string) bool {
	name := key
	if i := strings.LastIndex(key, "."); i >= 0 {
		name = key[i+1:]
	}
	r, _ := utf8.DecodeRuneInString(name)
	return unicode.IsUpper(r)
}
