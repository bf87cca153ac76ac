// Package nlr implements DiffTrace's Nested Loop Recognition (§III-A),
// adapted from Ketterlin & Clauss' trace-compression algorithm and Kobayashi
// & MacDougall's bottom-up loop-nest construction.
//
// The summarizer pushes trace entries (function names, or IDs of already
// detected loops) onto a stack of elements and, after every push, runs the
// paper's Reduce procedure (Procedure 1):
//
//   - if the top 3 b-long element groups are pairwise isomorphic for some
//     b ≤ K, they are folded into a loop element with body b and count 3;
//   - if the element at depth i is a loop whose body is isomorphic to the
//     top i-1 elements, the loop absorbs them and its count increments.
//
// Every distinct loop body is interned in a Table and given a unique ID
// (L0, L1, ...), shared across all traces of an execution so that the same
// loop detected in different traces (or in the normal and faulty runs) gets
// the same name — the property Tables III/IV and the FCA stage rely on.
//
// Complexity is Θ(K²·N) for a trace of N entries, as stated in the paper.
// That remains the worst case, but Reduce visits only candidate windows:
// every stack element carries an integer key (its token, or its loop's ID
// and count), cheap checks on the top key pick the fold widths, and an
// index of loops by the stack height their next iteration would end at
// picks the loops that could extend. The typical cost is O(K) integer
// compares per push.
package nlr

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"difftrace/internal/obs"
	"difftrace/internal/trace"
)

// DefaultK is the window constant used throughout the paper's experiments
// ("we set the NLR constant K to 10 for all experiments").
const DefaultK = 10

// Element is one entry of the NLR stack / summarized sequence: either a
// plain symbol (function name or loop-ID token) or a detected loop.
type Element struct {
	Sym  string // valid when Loop == nil
	Loop *Loop
}

// Loop is a recognized repetition: Body repeated Count times. ID is the
// table-assigned identity of Body (counts are not part of the identity:
// "L0^2" and "L0^4" are the same loop body looping differently, exactly as
// in Table III).
type Loop struct {
	Body  []Element
	Count int
	ID    int
}

// Token renders an element the way the paper prints NLR sequences:
// a bare function name, or "L<id>^<count>".
func (e Element) Token() string {
	if e.Loop == nil {
		return e.Sym
	}
	var buf [24]byte
	return string(e.appendToken(buf[:0]))
}

// appendToken appends e's token to buf.
func (e Element) appendToken(buf []byte) []byte {
	if e.Loop == nil {
		return append(buf, e.Sym...)
	}
	buf = append(buf, 'L')
	buf = strconv.AppendInt(buf, int64(e.Loop.ID), 10)
	buf = append(buf, '^')
	return strconv.AppendInt(buf, int64(e.Loop.Count), 10)
}

// Table interns loop bodies and assigns stable IDs in discovery order.
// One Table is shared by every trace of an execution pair (normal+faulty),
// mirroring the paper's global hash table of distinct loop bodies.
// It is safe for concurrent use.
//
// A Table can also be an *overlay* (NewOverlay): reads fall through to a
// frozen base table while new bodies are interned locally. Overlays are how
// the parallel pipeline keeps loop-ID assignment deterministic: workers
// never race on the shared table, and their local discoveries are merged
// back (Absorb) at a barrier in a canonical order that does not depend on
// scheduling.
type Table struct {
	mu     sync.Mutex
	ids    map[string]int
	bodies [][]Element

	// Overlay state. base is treated as frozen for the overlay's lifetime:
	// the first horizon IDs belong to it, locally interned bodies get IDs
	// from horizon upward.
	base    *Table
	horizon int

	// Interning hit/miss counters (Observe). Nil-safe handles: an
	// unobserved table counts into nothing at no cost beyond a nil check.
	obsHit, obsMiss *obs.Counter
}

// Observe routes the table's interning accounting — "nlr.intern.hit" and
// "nlr.intern.miss" counters, whose ratio is the paper's cross-trace
// loop-sharing measure — into r. Overlays inherit their base's counters.
// Call before the table is shared across goroutines.
func (t *Table) Observe(r *obs.Run) {
	t.obsHit = r.Counter("nlr.intern.hit")
	t.obsMiss = r.Counter("nlr.intern.miss")
}

// NewTable returns an empty loop table.
func NewTable() *Table { return &Table{ids: make(map[string]int)} }

// NewOverlay returns an overlay over base: Intern and Has see everything
// base currently holds (IDs < base.Len() are base IDs), while bodies not in
// base are interned locally with IDs from base.Len() upward. The caller
// must not mutate base while the overlay is in use; overlays of overlays
// are not supported.
func NewOverlay(base *Table) *Table {
	if base.base != nil {
		//lint:allow panicdiscipline caller-bug invariant: no trace input can construct a nested overlay, only pipeline code can, and silently flattening one would corrupt ID horizons
		panic("nlr: overlay of an overlay")
	}
	return &Table{
		ids: make(map[string]int), base: base, horizon: base.Len(),
		obsHit: base.obsHit, obsMiss: base.obsMiss,
	}
}

// appendTokens appends body's tokens to buf, separated by sep.
func appendTokens(buf []byte, body []Element, sep byte) []byte {
	for i, e := range body {
		if i > 0 {
			buf = append(buf, sep)
		}
		buf = e.appendToken(buf)
	}
	return buf
}

// appendSig appends body's canonical signature to buf. Nested loops already
// carry IDs (loops are interned bottom-up), so the signature is just the
// tokens joined by NUL.
func appendSig(buf []byte, body []Element) []byte { return appendTokens(buf, body, 0) }

// hasLocalRef reports whether body references any overlay-local loop ID
// (>= horizon). Such a body cannot exist in the frozen base — base bodies
// only reference IDs below the horizon — so base lookups are skipped.
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
	return t.intern(appendSig(nil, body), body)
}

// intern is Intern with body's signature already built; it allocates only
// when body is new.
func (t *Table) intern(sig []byte, body []Element) int {
	if t.base != nil && !t.hasLocalRef(body) {
		if id, ok := t.base.lookup(sig); ok {
			t.obsHit.Add(1)
			return id
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[string(sig)]; ok {
		t.obsHit.Add(1)
		return id
	}
	t.obsMiss.Add(1)
	id := t.horizon + len(t.bodies)
	t.ids[string(sig)] = id
	cp := make([]Element, len(body))
	copy(cp, body)
	t.bodies = append(t.bodies, cp)
	return id
}

// lookup reports the ID for an already-interned signature.
func (t *Table) lookup(sig []byte) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[string(sig)]
	return id, ok
}

// has reports whether body is already interned, without interning it; sig
// is body's signature. The Reduce procedure uses this as the paper's
// hash-table heuristic: a body already discovered elsewhere folds after
// only two repetitions (Table III's T0/T3 loop just twice yet are
// summarized as L^2).
func (t *Table) has(sig []byte, body []Element) bool {
	if t.base != nil && !t.hasLocalRef(body) {
		if _, ok := t.base.lookup(sig); ok {
			return true
		}
	}
	_, ok := t.lookup(sig)
	return ok
}

// Len reports the number of distinct loop bodies visible: for an overlay
// that includes everything below the horizon plus the local discoveries.
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

// Absorb merges an overlay's local discoveries into t (the overlay's base)
// and returns the remap from overlay-local IDs to their canonical base IDs.
// Local bodies are absorbed in ascending local-ID order; since a nested
// local loop is always interned before any body containing it, every local
// reference inside a body already has a remap entry when the body is
// processed. Calling Absorb on overlays in a canonical order is what makes
// the merged ID assignment independent of worker scheduling. IDs that land
// unchanged are omitted from the remap, so an empty map means the overlay's
// sequences are already in canonical form.
func (t *Table) Absorb(o *Table) map[int]int {
	if o.base != t {
		//lint:allow panicdiscipline caller-bug invariant: absorbing a foreign overlay would silently remap IDs against the wrong horizon; unreachable from any input
		panic("nlr: Absorb of a foreign overlay")
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
// remap (IDs absent from the map are kept). With an empty remap the input
// is returned as-is; otherwise loop elements are rebuilt so shared bodies
// are never mutated in place.
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
		out[i] = Element{Loop: &Loop{
			Body:  RemapElements(e.Loop.Body, remap),
			Count: e.Loop.Count,
			ID:    remapID(e.Loop.ID, remap),
		}}
	}
	return out
}

// remapID is id under remap.
func remapID(id int, remap map[int]int) int {
	if nid, ok := remap[id]; ok {
		return nid
	}
	return id
}

// Describe renders the loop body for id like "[MPI_Send MPI_Recv]",
// the notation §II-D uses to explain L0 and L1.
func (t *Table) Describe(id int) string {
	body := t.Body(id)
	if body == nil {
		return fmt.Sprintf("L%d=?", id)
	}
	return string(append(appendTokens([]byte{'['}, body, ' '), ']'))
}

// key is a stack element's identity under isomorphism: a symbol's token,
// or a loop's ID and count. Tokens are injective on names and the Table
// guarantees body equality ⇔ ID equality, so two elements are isomorphic
// exactly when their keys are equal, and Reduce compares integers only.
type key struct {
	id int // symbol token (>= 0), or ^loop ID (< 0)
	n  int // loop count; 0 for a symbol
}

func equalKeys(a, b []key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// slot is the summarizer's state for one stack element: a symbol, or a
// loop kept unboxed — its body here, its ID and count in its key — until
// it leaves the stack inside a body or through Elements. Extending a loop
// therefore only bumps its key's count.
type slot struct {
	sym  string
	loop *folded // the loop's body; nil for a symbol
	// next chains the loops that could extend at the same stack height
	// (see Summarizer.reach), topmost first; -1 ends the chain.
	next int
}

// folded is a loop body as this summarizer interned it: its table ID, its
// elements and their keys. Every later fold of the same keys reuses it.
type folded struct {
	id   int
	body []Element
	keys []key
}

// Candidate rules, in the order Procedure 1 tries them at one depth i.
const (
	ruleFold   = iota // the top three i/3-long groups are isomorphic
	ruleKnown         // the top two i/2-long groups repeat a known body
	ruleExtend        // the loop at depth i matches the top i-1 elements
)

// Summarizer runs the online Reduce procedure over one token stream. K and
// Table must not change after the first push; Reset starts a new stream.
type Summarizer struct {
	K     int
	Table *Table

	slots []slot
	keys  []key // keys[j] identifies slots[j]; dense for the scans
	// reach[h] is the topmost loop that could extend when the stack holds
	// h elements: the loop at slot p whose body has h-p-1 elements. Others
	// with the same reach follow through slot.next.
	reach  []int
	byKeys map[uint64]*folded // bodies folded so far, by hash of their keys
	cands  []int              // reduceOnce scratch: depth<<2 | rule
	syms   map[string]int     // Push's token assignment
	probe  []Element          // known-body probe scratch
	sig    []byte             // table signature scratch
}

// NewSummarizer returns a Summarizer with window constant k (DefaultK if
// k <= 0) interning loop bodies into table (a fresh one if nil).
func NewSummarizer(k int, table *Table) *Summarizer {
	s := new(Summarizer)
	s.Reset(k, table)
	return s
}

// Reset readies s for a new stream, exactly as NewSummarizer(k, table)
// would, but keeping the buffers it has grown.
func (s *Summarizer) Reset(k int, table *Table) {
	if k <= 0 {
		k = DefaultK
	}
	if table == nil {
		table = NewTable()
	}
	clear(s.slots[:cap(s.slots)])
	clear(s.byKeys)
	clear(s.syms)
	*s = Summarizer{
		K: k, Table: table,
		slots: s.slots[:0], keys: s.keys[:0], reach: s.reach[:0],
		byKeys: s.byKeys, syms: s.syms, cands: s.cands, sig: s.sig,
	}
}

// Push feeds the next trace entry and reduces. Push assigns tokens itself,
// by name; feed one Summarizer through Push or through PushToken, not both.
func (s *Summarizer) Push(sym string) {
	tok, ok := s.syms[sym]
	if !ok {
		if s.syms == nil {
			s.syms = make(map[string]int)
		}
		tok = len(s.syms)
		s.syms[sym] = tok
	}
	s.PushToken(uint32(tok), sym)
}

// PushToken feeds the next trace entry as a caller-assigned token with its
// name, and reduces. Equal tokens must carry equal names and distinct
// tokens distinct names, as Vocab's do; the name only labels the element
// and its loop bodies, and isomorphism is decided on tokens alone.
func (s *Summarizer) PushToken(tok uint32, sym string) {
	s.push(slot{sym: sym}, key{id: int(tok)})
	s.reduce(false)
}

// push appends one element to the stack, indexing a loop by its reach.
func (s *Summarizer) push(sl slot, k key) {
	sl.next = -1
	if sl.loop != nil {
		p := len(s.slots)
		h := p + 1 + len(sl.loop.keys)
		for len(s.reach) <= h {
			s.reach = append(s.reach, -1)
		}
		sl.next, s.reach[h] = s.reach[h], p
	}
	s.slots = append(s.slots, sl)
	s.keys = append(s.keys, k)
}

// truncate cuts the stack to m elements. The loops cut are the topmost of
// their reach chains, so unlinking each is popping a chain head.
func (s *Summarizer) truncate(m int) {
	for p := len(s.slots) - 1; p >= m; p-- {
		if l := s.slots[p].loop; l != nil {
			s.reach[p+1+len(l.keys)] = s.slots[p].next
		}
	}
	s.slots, s.keys = s.slots[:m], s.keys[:m]
}

// element boxes slot p as an Element.
func (s *Summarizer) element(p int) Element {
	sl := s.slots[p]
	if sl.loop == nil {
		return Element{Sym: sl.sym}
	}
	return Element{Loop: &Loop{Body: sl.loop.body, Count: s.keys[p].n, ID: sl.loop.id}}
}

// reduce is Procedure 1, iterated to fixpoint. For i = 1..3K with b = i/3
// it checks (a) the top three b-long groups folding into a new loop and
// (b) a loop at depth i extending over the top i-1 elements. When
// allowKnownFold is set (finalization only — see Finalize), an additional
// rule folds two adjacent repetitions of a body already in the loop table.
func (s *Summarizer) reduce(allowKnownFold bool) {
	for s.reduceOnce(allowKnownFold) {
	}
}

// reduceOnce applies the first rule that fires, in the (i, rule) order of
// the paper's i = 1..3K scan, but runs the full comparison only for
// candidates that pass a cheap necessary check:
//
//   - every group of a fold (Rule 1) or known-body fold (Rule 1b) of width
//     b ends in the top key, so b is a candidate only if the key b (and
//     2b) below the top equals it;
//   - an extension (Rule 2) at depth i needs a loop there whose body has
//     i-1 elements, which the reach index lists directly, and the body's
//     last key must match the top.
func (s *Summarizer) reduceOnce(allowKnownFold bool) bool {
	keys := s.keys
	n := len(keys)
	top := keys[n-1]
	cands := s.cands[:0]
	for b := 1; b <= s.K && 2*b <= n; b++ {
		if keys[n-1-b] != top {
			continue
		}
		if allowKnownFold {
			cands = append(cands, 2*b<<2|ruleKnown)
		}
		if 3*b <= n && keys[n-1-2*b] == top {
			cands = append(cands, 3*b<<2|ruleFold)
		}
	}
	if n < len(s.reach) {
		// Bodies are at most K long, so every listed loop lies within the
		// 3K window.
		for p := s.reach[n]; p >= 0; p = s.slots[p].next {
			if s.slots[p].loop.keys[n-p-2] == top {
				cands = append(cands, (n-p)<<2|ruleExtend)
			}
		}
	}
	if cap(cands) != cap(s.cands) {
		s.cands = cands
	}
	for j := 1; j < len(cands); j++ {
		for i := j; i > 0 && cands[i] < cands[i-1]; i-- {
			cands[i], cands[i-1] = cands[i-1], cands[i]
		}
	}
	for _, c := range cands {
		i := c >> 2
		switch c & 3 {
		case ruleFold:
			b := i / 3
			if equalKeys(keys[n-3*b:n-2*b], keys[n-2*b:n-b]) && equalKeys(keys[n-2*b:n-b], keys[n-b:]) {
				s.fold(b, 3)
				return true
			}
		case ruleKnown:
			b := i / 2
			if equalKeys(keys[n-2*b:n-b], keys[n-b:]) && s.known(n-b) {
				s.fold(b, 2)
				return true
			}
		case ruleExtend:
			p := n - i
			if equalKeys(s.slots[p].loop.keys, keys[p+1:]) {
				s.keys[p].n++
				s.truncate(p + 1)
				return true
			}
		}
	}
	return false
}

// fold replaces the top count·b elements, count repetitions of a b-long
// body, with one loop element.
func (s *Summarizer) fold(b, count int) {
	n := len(s.slots)
	f := s.intern(n - b)
	s.truncate(n - count*b)
	s.push(slot{loop: f}, key{id: ^f.id, n: count})
}

// intern returns the body formed by the elements from slot j to the top.
// A body folded before comes back from the summarizer's own cache — equal
// keys mean isomorphic elements, hence the same table ID — and is counted
// as the table hit it stands for; a new one is interned in the table.
func (s *Summarizer) intern(j int) *folded {
	ks := s.keys[j:]
	h := uint64(14695981039346656037) // FNV-1a over the keys
	for _, k := range ks {
		h = (h ^ uint64(k.id)) * 1099511628211
		h = (h ^ uint64(k.n)) * 1099511628211
	}
	cached := s.byKeys[h]
	if cached != nil && equalKeys(cached.keys, ks) {
		s.Table.obsHit.Add(1)
		return cached
	}
	f := &folded{body: make([]Element, len(ks)), keys: slices.Clone(ks)}
	for x := range f.body {
		f.body[x] = s.element(j + x)
	}
	s.sig = appendSig(s.sig[:0], f.body)
	f.id = s.Table.intern(s.sig, f.body)
	if cached == nil { // on a hash collision the first body keeps the slot
		if s.byKeys == nil {
			s.byKeys = make(map[uint64]*folded)
		}
		s.byKeys[h] = f
	}
	return f
}

// known reports whether the elements from slot j to the top form a body
// already in the loop table.
func (s *Summarizer) known(j int) bool {
	s.probe = s.probe[:0]
	for x := j; x < len(s.slots); x++ {
		s.probe = append(s.probe, s.element(x))
	}
	s.sig = appendSig(s.sig[:0], s.probe)
	return s.Table.has(s.sig, s.probe)
}

// Finalize runs the end-of-trace cleanup: the summarized sequence is
// re-reduced with the known-body heuristic enabled, folding two-repetition
// occurrences of loop bodies discovered elsewhere (or earlier in this
// trace). Called once after the last Push; Summarize does it automatically.
//
// The re-reduced stack reuses the old one's storage: after j old elements
// it holds at most j, so it never overwrites an element not yet re-pushed.
func (s *Summarizer) Finalize() {
	n := len(s.slots)
	s.truncate(0)
	for j := 0; j < n; j++ {
		s.push(s.slots[:n][j], s.keys[:n][j])
		s.reduce(true)
	}
}

// Elements returns the current summarized sequence. The loops in it are
// fresh copies, so later pushes never change it.
func (s *Summarizer) Elements() []Element {
	out := make([]Element, len(s.slots))
	for j := range s.slots {
		out[j] = s.element(j)
	}
	return out
}

// Stack is a Summarizer's stack saved between the last push and Finalize
// (Save), to be finalized again later against a grown loop table (Restore)
// without replaying the pushes. That is sound because pushes decide every
// fold and extension by key equality and use the table only to number
// bodies: pushing the same stream again against a table that holds the
// stack's bodies rebuilds this stack, under the same IDs. Only Finalize's
// known-body rule reads what the table holds. A Stack is bounded by the
// summarized form, not by the stream.
type Stack struct {
	k       int
	entries []saved
}

// saved is one element of a Stack: a symbol, its token in n, or a loop,
// its count in n. The keys Restore pushes are built from these.
type saved struct {
	sym  string
	loop *folded
	n    int
}

// Save returns a copy of the stack as the pushes left it. Call it after the
// last push and before Finalize.
func (s *Summarizer) Save() *Stack {
	st := &Stack{k: s.K, entries: make([]saved, len(s.slots))}
	for j, sl := range s.slots {
		n := s.keys[j].n
		if sl.loop == nil {
			n = s.keys[j].id
		}
		st.entries[j] = saved{sym: sl.sym, loop: sl.loop, n: n}
	}
	return st
}

// Remap rewrites the stack's loop IDs by an Absorb remap, in place, as
// RemapElements rewrites elements: once Absorb has renamed the overlay the
// stack was pushed against, the stack matches what pushes against the
// absorbing table would build. Loops are rebuilt, never mutated, so
// sequences handed out by Elements, bodies held by tables and other stacks
// keep their IDs.
func (st *Stack) Remap(remap map[int]int) {
	if len(remap) == 0 {
		return
	}
	rebuilt := make(map[*folded]*folded)
	for j, e := range st.entries {
		if e.loop == nil {
			continue
		}
		f, ok := rebuilt[e.loop]
		if !ok {
			f = &folded{
				id:   remapID(e.loop.id, remap),
				body: RemapElements(e.loop.body, remap),
				keys: slices.Clone(e.loop.keys),
			}
			for x, k := range f.keys {
				if k.id < 0 {
					f.keys[x].id = ^remapID(^k.id, remap)
				}
			}
			rebuilt[e.loop] = f
		}
		st.entries[j].loop = f
	}
}

// Restore readies s, as Reset would with st's window constant and table,
// and lays st's elements on the stack as the pushes left them, so that
// Finalize and Elements run exactly as they would after those pushes
// against table. st is only read: it can be restored again.
func (s *Summarizer) Restore(st *Stack, table *Table) {
	s.Reset(st.k, table)
	for _, e := range st.entries {
		if e.loop == nil {
			s.push(slot{sym: e.sym}, key{id: e.n})
		} else {
			s.push(slot{loop: e.loop}, key{id: ^e.loop.id, n: e.n})
		}
	}
}

// Tokens renders a summarized element sequence as tokens.
func Tokens(elems []Element) []string {
	out := make([]string, len(elems))
	for i, e := range elems {
		out[i] = e.Token()
	}
	return out
}

// Expand undoes the summarization, reproducing the original token stream —
// NLR is a lossless abstraction (§II-A: "serves as a lossless abstraction").
//
// Expand materializes the full expansion and is for tests and reference
// code only: the analysis pipeline must stay memory-bounded by the
// summarized form (that is what lets core diff compressed traces that
// would not fit in memory expanded). The
// expanddiscipline lint check rejects production calls; a deliberate
// exception needs //lint:allow expanddiscipline with a reason.
func Expand(elems []Element) []string {
	var out []string
	var rec func(es []Element)
	rec = func(es []Element) {
		for _, e := range es {
			if e.Loop == nil {
				out = append(out, e.Sym)
				continue
			}
			for i := 0; i < e.Loop.Count; i++ {
				rec(e.Loop.Body)
			}
		}
	}
	rec(elems)
	return out
}

// ExpandedLen returns the number of tokens Expand would produce, computed
// by loop arithmetic over the summarized form — O(summary size), no
// materialization. The divergence and progress layers use it to
// reason about expanded event positions while staying inside the streaming
// memory contract.
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

// Summarize runs the full pass over tokens (including finalization) and
// returns the element sequence.
func Summarize(tokens []string, k int, table *Table) []Element {
	s := NewSummarizer(k, table)
	for _, t := range tokens {
		s.Push(t)
	}
	s.Finalize()
	return s.Elements()
}

// SummarizeTrace summarizes the *call* events of tr (returns are assumed to
// be filtered already; any remaining exits are rendered as "ret:<name>"
// tokens so the abstraction stays lossless).
func SummarizeTrace(tr *trace.Trace, reg *trace.Registry, k int, table *Table) []Element {
	s := NewSummarizer(k, table)
	pushTrace(s, tr, NewVocab(reg))
	s.Finalize()
	return s.Elements()
}

// pushTrace pushes tr's events as v's tokens.
func pushTrace(s *Summarizer, tr *trace.Trace, v *Vocab) {
	for _, e := range tr.Events {
		s.PushToken(v.Token(e.Func, e.Kind))
	}
}

// SummarizeSet summarizes every trace of set in deterministic ID order with
// two passes: the first pass populates the shared loop table, the second
// finalizes each trace again so that loops discovered late (in another
// trace) still fold in traces processed earlier — this is what lets Table
// III summarize T0's two iterations as L^2 after T2 revealed the body.
// The second pass restores the stack the first saved before Finalize
// instead of reading the trace again: the table is shared, not overlaid,
// so pushing the trace again would rebuild that stack under the same IDs.
// Exits surviving the filter are rendered as "ret:<name>" tokens.
func SummarizeSet(set *trace.TraceSet, k int, table *Table) map[trace.ThreadID][]Element {
	if table == nil {
		table = NewTable()
	}
	v := NewVocab(set.Registry)
	ids := set.IDs()
	s := new(Summarizer)
	stacks := make([]*Stack, len(ids))
	for i, id := range ids {
		s.Reset(k, table)
		pushTrace(s, set.Traces[id], v)
		stacks[i] = s.Save()
		s.Finalize()
	}
	out := make(map[trace.ThreadID][]Element, len(ids))
	for i, id := range ids {
		s.Restore(stacks[i], table)
		s.Finalize()
		out[id] = s.Elements()
	}
	return out
}

// Reduction reports the size reduction factor |input| / |summarized| for a
// token stream (the §V statistic: ×1.92 at K=10, ×16.74 at K=50 on LULESH).
func Reduction(inputLen int, elems []Element) float64 {
	if len(elems) == 0 {
		return 1
	}
	return float64(inputLen) / float64(len(elems))
}
