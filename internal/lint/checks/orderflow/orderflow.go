// Package orderflow proves the determinism invariant behind nlr.Table.Absorb
// and the stable-JSON manifest: iterating a Go map yields a random order,
// so map-iteration order must never reach an ordered sink — a printer, a
// writer, an encoder, or a slice — unless it is sorted into a canonical
// order first. It is the one check for that invariant, in the same function
// and across function and package boundaries.
//
// In the function that ranges over the map, three shapes are flagged:
//
//	for k, v := range m { fmt.Fprintf(w, "%s=%d\n", k, v) } // writing sink in the range body
//	for k := range m { keys = append(keys, k) }            // keys is never sorted here
//	s := ""; for k := range m { s += k }; fmt.Println(s)     // a range key reaching a sink later
//
// A writing sink (fmt printing, Write*/Encode/Absorb methods) called inside
// a map-range body is flagged whatever it writes, and a slice appended to
// inside one is flagged unless the function passes it to sort.* or
// slices.Sort* — returned, printed, or only iterated, its element order is
// the map's. The collect-then-sort idiom
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// is therefore clean, and so are commutative folds (sums, counters,
// map-to-map copies), which have no ordered sink.
//
// Across functions, the check follows the order through the loopholes a
// per-function view cannot see:
//
//	ks := helper.Keys(m)      // helper collects in range order
//	fmt.Fprintf(w, "%v", ks)  // sink is two calls away
//
//	c.hot = append(c.hot, k)  // taints a field inside the range
//	fmt.Fprintln(w, c.hot)    // sink reads the field elsewhere
//
// It consumes the summary layer's ORDER fixpoint: a flow is flagged when
// its source — direct map iteration, a module call's return, a struct
// field, or a channel field — resolves to map-iteration order after
// closing over the whole module. Sorting before the sink (sort.*,
// slices.Sort*, slices.Sorted) launders the taint.
package orderflow

import (
	"difftrace/internal/lint"
	"difftrace/internal/lint/callgraph"
	"difftrace/internal/lint/summary"
)

// Check is the registered orderflow analyzer.
var Check = &lint.Check{
	Name:      "orderflow",
	Doc:       "map-iteration order must not reach an ordered sink (printer, writer, unsorted slice) directly or through helper returns, fields, or channels",
	RunModule: run,
}

func run(mp *lint.ModulePass) {
	g := callgraph.For(mp)
	s := summary.For(mp)
	for _, ps := range s.Pkgs {
		for _, f := range ps.SinkFlows {
			if !s.ResolveUnordered(f.Source) {
				continue
			}
			chain := g.ChainFromExported(f.Fn)
			mp.ReportAt(ps.Rel, f.Pos.File, f.Pos.Line, f.Pos.Col, chain,
				"%s reaches ordered sink %s — sort into a canonical order first",
				s.DescribeSource(f.Source), f.Sink)
		}
	}
}
