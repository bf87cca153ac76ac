// Package reftest preserves the string-keyed NLR summarizer as a reference
// implementation: Element, Loop, Table and Summarizer keep the original
// nlr logic unchanged — a fixed i = 1..3K scan per push comparing names,
// a fresh *Loop on every extension, and signatures built with
// fmt.Sprintf/strings.Join — minus the telemetry hooks. It exists for one
// job: the differential suite and FuzzSummarizeReference assert that the
// candidate-driven, integer-keyed nlr.Summarizer produces the same tokens,
// expanded lengths and loop table as this one on every input. It is
// deliberately frozen: do not optimize or extend it.
package reftest

import (
	"fmt"
	"strings"
	"sync"
)

// Element is one entry of the NLR stack / summarized sequence: either a
// plain symbol (function name or loop-ID token) or a detected loop.
type Element struct {
	Sym  string // valid when Loop == nil
	Loop *Loop
}

// Loop is a recognized repetition: Body repeated Count times.
type Loop struct {
	Body  []Element
	Count int
	ID    int
}

// Token renders an element as a bare function name or "L<id>^<count>".
func (e Element) Token() string {
	if e.Loop == nil {
		return e.Sym
	}
	return fmt.Sprintf("L%d^%d", e.Loop.ID, e.Loop.Count)
}

func iso(a, b Element) bool {
	if (a.Loop == nil) != (b.Loop == nil) {
		return false
	}
	if a.Loop == nil {
		return a.Sym == b.Sym
	}
	return a.Loop.ID == b.Loop.ID && a.Loop.Count == b.Loop.Count
}

func isoSlice(a, b []Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !iso(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Table interns loop bodies and assigns stable IDs in discovery order; an
// overlay (NewOverlay) reads through to a frozen base.
type Table struct {
	mu     sync.Mutex
	ids    map[string]int
	bodies [][]Element

	base    *Table
	horizon int
}

// NewTable returns an empty loop table.
func NewTable() *Table { return &Table{ids: make(map[string]int)} }

// NewOverlay returns an overlay over base.
func NewOverlay(base *Table) *Table {
	if base.base != nil {
		//lint:allow panicdiscipline caller-bug invariant: the frozen reference mirrors the original overlay contract; only test code constructs overlays here
		panic("reftest: overlay of an overlay")
	}
	return &Table{ids: make(map[string]int), base: base, horizon: base.Len()}
}

func bodySig(body []Element) string {
	toks := make([]string, len(body))
	for i, e := range body {
		toks[i] = e.Token()
	}
	return strings.Join(toks, "\x00")
}

func (t *Table) hasLocalRef(body []Element) bool {
	for _, e := range body {
		if e.Loop != nil && e.Loop.ID >= t.horizon {
			return true
		}
	}
	return false
}

// Intern returns the ID for body, assigning the next free ID on first sight.
func (t *Table) Intern(body []Element) int {
	sig := bodySig(body)
	if t.base != nil && !t.hasLocalRef(body) {
		if id, ok := t.base.lookup(sig); ok {
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[sig]; ok {
		return id
	}
	id := t.horizon + len(t.bodies)
	t.ids[sig] = id
	cp := make([]Element, len(body))
	copy(cp, body)
	t.bodies = append(t.bodies, cp)
	return id
}

func (t *Table) lookup(sig string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[sig]
	return id, ok
}

// Has reports whether body is already interned, without interning it.
func (t *Table) Has(body []Element) bool {
	sig := bodySig(body)
	if t.base != nil && !t.hasLocalRef(body) {
		if _, ok := t.base.lookup(sig); ok {
			return true
		}
	}
	_, ok := t.lookup(sig)
	return ok
}

// Len reports the number of distinct loop bodies visible.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.horizon + len(t.bodies)
}

// Body returns (a copy of) the body for id; nil if unknown.
func (t *Table) Body(id int) []Element {
	if t.base != nil && id >= 0 && id < t.horizon {
		return t.base.Body(id)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := id - t.horizon
	if i < 0 || i >= len(t.bodies) {
		return nil
	}
	out := make([]Element, len(t.bodies[i]))
	copy(out, t.bodies[i])
	return out
}

// Absorb merges an overlay's local discoveries into t and returns the
// remap from overlay-local IDs to their canonical IDs.
func (t *Table) Absorb(o *Table) map[int]int {
	if o.base != t {
		//lint:allow panicdiscipline caller-bug invariant: the frozen reference mirrors the original overlay contract; only test code absorbs overlays here
		panic("reftest: Absorb of a foreign overlay")
	}
	o.mu.Lock()
	local := o.bodies
	o.mu.Unlock()
	remap := make(map[int]int)
	for i, body := range local {
		oldID := o.horizon + i
		newID := t.Intern(RemapElements(body, remap))
		if newID != oldID {
			remap[oldID] = newID
		}
	}
	return remap
}

// RemapElements rewrites loop IDs in a summarized sequence according to
// remap.
func RemapElements(elems []Element, remap map[int]int) []Element {
	if len(remap) == 0 {
		return elems
	}
	out := make([]Element, len(elems))
	for i, e := range elems {
		if e.Loop == nil {
			out[i] = e
			continue
		}
		id := e.Loop.ID
		if nid, ok := remap[id]; ok {
			id = nid
		}
		out[i] = Element{Loop: &Loop{
			Body:  RemapElements(e.Loop.Body, remap),
			Count: e.Loop.Count,
			ID:    id,
		}}
	}
	return out
}

// Describe renders the loop body for id like "[MPI_Send MPI_Recv]".
func (t *Table) Describe(id int) string {
	body := t.Body(id)
	if body == nil {
		return fmt.Sprintf("L%d=?", id)
	}
	toks := make([]string, len(body))
	for i, e := range body {
		toks[i] = e.Token()
	}
	return "[" + strings.Join(toks, " ") + "]"
}

// Summarizer runs the online Reduce procedure over one token stream.
type Summarizer struct {
	K     int
	Table *Table
	stack []Element
}

// NewSummarizer returns a Summarizer with window constant k (10 if k <= 0)
// interning loop bodies into table (a fresh one if nil).
func NewSummarizer(k int, table *Table) *Summarizer {
	if k <= 0 {
		k = 10
	}
	if table == nil {
		table = NewTable()
	}
	return &Summarizer{K: k, Table: table}
}

// Push feeds the next trace entry and reduces.
func (s *Summarizer) Push(sym string) {
	s.push(Element{Sym: sym}, false)
}

func (s *Summarizer) push(e Element, allowKnownFold bool) {
	s.stack = append(s.stack, e)
	for s.reduceOnce(allowKnownFold) {
	}
}

func (s *Summarizer) reduceOnce(allowKnownFold bool) bool {
	n := len(s.stack)
	for i := 1; i <= 3*s.K; i++ {
		b := i / 3
		if b >= 1 && i == 3*b && n >= 3*b {
			g2 := s.stack[n-b:]
			g1 := s.stack[n-2*b : n-b]
			g0 := s.stack[n-3*b : n-2*b]
			if isoSlice(g0, g1) && isoSlice(g1, g2) {
				body := make([]Element, b)
				copy(body, g2)
				id := s.Table.Intern(body)
				s.stack = s.stack[:n-3*b]
				s.stack = append(s.stack, Element{Loop: &Loop{Body: body, Count: 3, ID: id}})
				return true
			}
		}
		if b2 := i / 2; allowKnownFold && b2 >= 1 && i == 2*b2 && b2 <= s.K && n >= 2*b2 {
			g1 := s.stack[n-b2:]
			g0 := s.stack[n-2*b2 : n-b2]
			if isoSlice(g0, g1) && s.Table.Has(g1) {
				body := make([]Element, b2)
				copy(body, g1)
				id := s.Table.Intern(body)
				s.stack = s.stack[:n-2*b2]
				s.stack = append(s.stack, Element{Loop: &Loop{Body: body, Count: 2, ID: id}})
				return true
			}
		}
		if i >= 2 && n >= i {
			el := &s.stack[n-i]
			if el.Loop != nil && len(el.Loop.Body) == i-1 && isoSlice(el.Loop.Body, s.stack[n-i+1:]) {
				el.Loop = &Loop{Body: el.Loop.Body, Count: el.Loop.Count + 1, ID: el.Loop.ID}
				s.stack = s.stack[:n-i+1]
				return true
			}
		}
	}
	return false
}

// Finalize re-reduces the summarized sequence with the known-body fold
// enabled.
func (s *Summarizer) Finalize() {
	old := s.stack
	s.stack = make([]Element, 0, len(old))
	for _, e := range old {
		s.push(e, true)
	}
}

// Elements returns the current summarized sequence (a copy).
func (s *Summarizer) Elements() []Element {
	out := make([]Element, len(s.stack))
	copy(out, s.stack)
	return out
}

// Tokens renders a summarized element sequence as tokens.
func Tokens(elems []Element) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = e.Token()
	}
	return out
}

// ExpandedLen returns the number of tokens the sequence expands to.
func ExpandedLen(elems []Element) int64 {
	var n int64
	for _, e := range elems {
		if e.Loop == nil {
			n++
			continue
		}
		n += int64(e.Loop.Count) * ExpandedLen(e.Loop.Body)
	}
	return n
}

// Summarize runs the full pass over tokens, finalization included.
func Summarize(tokens []string, k int, table *Table) []Element {
	s := NewSummarizer(k, table)
	for _, t := range tokens {
		s.Push(t)
	}
	s.Finalize()
	return s.Elements()
}
