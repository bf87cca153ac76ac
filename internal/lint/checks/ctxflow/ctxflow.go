// Package ctxflow flags dropped cancellation: a function that receives a
// context.Context but calls a module API that cannot take one, when that
// API has a Context-accepting sibling right next to it.
//
// A few cancellable operations still keep a ctx-less entry point next to
// their Context variant — DiffRun/DiffRunContext, ReadSetText/
// ReadSetTextContext — because the benchmark module calls both names; the
// bare name delegates with a nil ctx. Calling the bare name while holding
// a real ctx silently severs the cancellation chain: the caller's deadline
// stops propagating exactly one frame down.
//
// The sibling rule is purely lexical: callee key + "Context" must name a
// module function (or method on the same receiver) whose summary shows a
// context.Context parameter. No sibling, no finding — calling a genuinely
// ctx-free helper from a ctx-bearing function is normal.
package ctxflow

import (
	"strings"

	"difftrace/internal/lint"
	"difftrace/internal/lint/callgraph"
	"difftrace/internal/lint/summary"
)

// Check is the registered ctxflow analyzer.
var Check = &lint.Check{
	Name:      "ctxflow",
	Doc:       "a function holding a ctx must not call the ctx-less variant of an API that has a Context sibling",
	RunModule: run,
}

func run(mp *lint.ModulePass) {
	g := callgraph.For(mp)
	s := summary.For(mp)
	for _, ps := range s.Pkgs {
		for _, f := range ps.Funcs {
			if f.CtxParam < 0 {
				continue
			}
			for _, c := range f.CallsNoCtx {
				sibKey := c.Callee + "Context"
				if _, ok := g.ByKey[sibKey]; !ok {
					continue
				}
				sib := s.Func(sibKey)
				if sib == nil || sib.CtxParam < 0 {
					continue
				}
				mp.ReportAt(ps.Rel, c.Pos.File, c.Pos.Line, c.Pos.Col, g.ChainFromExported(f.Key),
					"%s holds a ctx but calls %s, which drops it — call %s to keep cancellation flowing",
					shortName(f.Key), c.Callee, sibKey)
			}
		}
	}
}

// shortName trims the package path off a plain function key for the
// message: "difftrace/internal/trace.DiffRun" -> "trace.DiffRun". Method
// keys keep their receiver spelling untouched.
func shortName(key string) string {
	if strings.HasPrefix(key, "(") {
		return key
	}
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
