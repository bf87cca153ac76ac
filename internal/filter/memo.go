package filter

import "difftrace/internal/trace"

// Memo holds a filter's keep decision for every function of a registry,
// indexed by function ID. The streaming pipeline filters each decoded
// symbol on the fly — and re-filters on every summarization round, since
// streams are re-decoded instead of kept expanded — so the regexp-backed
// KeepName would otherwise run once per event instead of once per distinct
// function. Decisions are a pure function of the interned name, so the
// table cannot change results (TestMemoMatchesKeepName checks it against
// KeepName); Apply and ApplySet filter through a Memo too.
//
// The table is filled when the Memo is made and never written again, so
// Keep takes no lock and many workers can share one Memo.
type Memo struct {
	f    *Filter
	reg  *trace.Registry
	keep []bool // indexed by function ID
}

// Memo returns the keep decisions of f over every function reg holds now.
// The drop-returns flag is not part of the decision (it acts on event
// kind, not name); streaming callers apply it before consulting the Memo,
// mirroring Apply.
func (f *Filter) Memo(reg *trace.Registry) *Memo {
	names := reg.Names()
	m := &Memo{f: f, reg: reg, keep: make([]bool, len(names))}
	for fn, name := range names {
		m.keep[fn] = f.KeepName(name)
	}
	return m
}

// Keep reports whether events of function fn survive the keep-categories,
// equal to f.KeepName(reg.Name(fn)) by construction. A function interned
// after the Memo was made is decided by name on every call.
func (m *Memo) Keep(fn uint32) bool {
	if int(fn) < len(m.keep) {
		return m.keep[fn]
	}
	return m.f.KeepName(m.reg.Name(fn))
}
