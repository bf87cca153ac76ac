package attr

import (
	"difftrace/internal/fca"
	"difftrace/internal/trace"
)

// ContextStream incrementally mines caller→callee attributes ("caller>callee")
// from a pushed enter/exit event stream; top-level calls attribute to the
// pseudo-root "_". The stream must retain its return events for the nesting
// to be reconstructible (use a "0…" filter spec). State is the open-call
// stack plus the frequency table: bounded by call depth and distinct
// caller>callee pairs, never by trace length.
type ContextStream struct {
	freqs map[string]int
	stack []string
}

// NewContextStream returns an empty accumulator.
func NewContextStream() *ContextStream {
	return &ContextStream{freqs: make(map[string]int)}
}

// Push feeds one event. Enter events attribute the callee to the current
// stack top (pseudo-root "_" at top level); Exit events pop when balanced.
func (c *ContextStream) Push(name string, kind trace.EventKind) {
	switch kind {
	case trace.Enter:
		caller := "_"
		if len(c.stack) > 0 {
			caller = c.stack[len(c.stack)-1]
		}
		c.freqs[caller+">"+name]++
		c.stack = append(c.stack, name)
	case trace.Exit:
		if n := len(c.stack); n > 0 && c.stack[n-1] == name {
			c.stack = c.stack[:n-1]
		}
	}
}

// ExtractIn folds the accumulated frequencies into an attribute set bound
// to in, interning in sorted-name order (same contract as attr.ExtractIn).
// The accumulator remains usable; further pushes extend the same tally.
func (c *ContextStream) ExtractIn(in *Interner, f Freq) fca.AttrSet {
	return renderAll(in, c.freqs, f)
}
