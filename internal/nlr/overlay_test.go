package nlr

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func syms(names ...string) []Element {
	out := make([]Element, len(names))
	for i, n := range names {
		out[i] = Element{Sym: n}
	}
	return out
}

func loopElem(t *Table, count int, body ...Element) Element {
	return Element{Loop: &Loop{Body: body, Count: count, ID: t.Intern(body)}}
}

// Has reports whether body is already interned, without interning it.
func (t *Table) Has(body []Element) bool {
	return t.has(appendSig(nil, body), body)
}

func TestOverlayReadsThroughToBase(t *testing.T) {
	base := NewTable()
	ab := syms("A", "B")
	baseID := base.Intern(ab)

	o := NewOverlay(base)
	if !o.Has(ab) {
		t.Fatal("overlay does not see base body")
	}
	if got := o.Intern(ab); got != baseID {
		t.Fatalf("overlay Intern of base body = %d, want base ID %d", got, baseID)
	}
	if o.Len() != base.Len() {
		t.Fatalf("fresh overlay Len = %d, want %d", o.Len(), base.Len())
	}
	if base.Len() != 1 {
		t.Fatalf("overlay reads mutated base: Len = %d", base.Len())
	}
	if got := Tokens(o.Body(baseID)); strings.Join(got, " ") != "A B" {
		t.Fatalf("overlay Body(base id) = %v", got)
	}
}

func TestOverlayLocalIDsStartAtHorizon(t *testing.T) {
	base := NewTable()
	base.Intern(syms("A"))
	base.Intern(syms("B"))

	o := NewOverlay(base)
	id := o.Intern(syms("C"))
	if id != 2 {
		t.Fatalf("first local ID = %d, want horizon 2", id)
	}
	if again := o.Intern(syms("C")); again != id {
		t.Fatalf("re-Intern = %d, want %d", again, id)
	}
	if o.Len() != 3 {
		t.Fatalf("overlay Len = %d, want 3", o.Len())
	}
	if base.Len() != 2 {
		t.Fatalf("base mutated: Len = %d", base.Len())
	}
	if got := Tokens(o.Body(id)); strings.Join(got, " ") != "C" {
		t.Fatalf("overlay Body(local) = %v", got)
	}
	if base.Body(id) != nil {
		t.Fatal("base resolves an overlay-local ID")
	}
}

// A body referencing an overlay-local loop must never consult the base:
// local IDs are outside the base's ID space, so a matching signature in
// the base would be a collision, not an identity.
func TestOverlayLocalRefSkipsBase(t *testing.T) {
	base := NewTable()
	base.Intern(syms("A"))
	o := NewOverlay(base)
	inner := loopElem(o, 3, syms("C")...) // local ID 1
	if inner.Loop.ID != 1 {
		t.Fatalf("inner local ID = %d, want 1", inner.Loop.ID)
	}
	body := []Element{{Sym: "X"}, inner}
	if o.Has(body) {
		t.Fatal("Has true for never-interned local-ref body")
	}
	id := o.Intern(body)
	if id != 2 {
		t.Fatalf("local-ref body ID = %d, want 2", id)
	}
}

func TestAbsorbCanonicalOrder(t *testing.T) {
	base := NewTable()
	base.Intern(syms("A")) // ID 0

	// Two overlays built from the same frozen base, discovering different
	// (and one shared) bodies.
	o1 := NewOverlay(base)
	o2 := NewOverlay(base)
	bID := o1.Intern(syms("B"))                  // local 1 in o1
	cID := o2.Intern(syms("C"))                  // local 1 in o2
	bID2 := o2.Intern(syms("B"))                 // local 2 in o2 — same body as o1's
	nested := loopElem(o2, 4, Element{Sym: "D"}) // local 3 in o2
	outerBody := []Element{{Sym: "E"}, nested}
	outerID := o2.Intern(outerBody) // local 4 in o2, references local 3

	r1 := t1Absorb(t, base, o1)
	if len(r1) != 0 {
		t.Fatalf("first overlay absorbed with remap %v, want identity", r1)
	}
	if got := base.Len(); got != 2 {
		t.Fatalf("base Len after first absorb = %d, want 2", got)
	}
	_ = bID

	r2 := t1Absorb(t, base, o2)
	// o2's C (local 1) keeps slot... base had [A B]; C interns to 2, so
	// local 1 → 2; B (local 2) dedups onto base's 1; D-loop (local 3) → 3;
	// outer (local 4, references 3) → 4.
	want := map[int]int{1: 2, 2: 1, 4: 4, 3: 3}
	// Entries equal to their key are omitted from the remap.
	for k, v := range want {
		if k == v {
			delete(want, k)
		}
	}
	if !reflect.DeepEqual(r2, want) {
		t.Fatalf("second absorb remap = %v, want %v", r2, want)
	}
	if got := base.Len(); got != 5 {
		t.Fatalf("base Len after both absorbs = %d, want 5", got)
	}
	_ = cID
	_ = bID2
	// The absorbed outer body must reference D's canonical ID.
	canonOuter := base.Body(4)
	if canonOuter == nil || canonOuter[1].Loop == nil || canonOuter[1].Loop.ID != 3 {
		t.Fatalf("absorbed nested reference not remapped: %v", Tokens(canonOuter))
	}
	_ = outerID
}

func t1Absorb(t *testing.T, base, o *Table) map[int]int {
	t.Helper()
	return base.Absorb(o)
}

// Absorbing overlays in the same canonical order yields the same base table
// regardless of which overlay did its work first (scheduling independence).
func TestAbsorbOrderDeterminism(t *testing.T) {
	build := func(firstWork int) *Table {
		base := NewTable()
		base.Intern(syms("init"))
		overlays := []*Table{NewOverlay(base), NewOverlay(base)}
		work := []func(o *Table){
			func(o *Table) { o.Intern(syms("P", "Q")); o.Intern(syms("R")) },
			func(o *Table) { o.Intern(syms("R")); o.Intern(syms("S", "T")) },
		}
		// Simulate scheduling: the "firstWork" overlay runs first; absorb
		// order is always canonical (index order).
		work[firstWork](overlays[firstWork])
		work[1-firstWork](overlays[1-firstWork])
		for _, o := range overlays {
			base.Absorb(o)
		}
		return base
	}
	a, b := build(0), build(1)
	if a.Len() != b.Len() {
		t.Fatalf("table sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		if !reflect.DeepEqual(a.Body(id), b.Body(id)) {
			t.Fatalf("body %d differs: %v vs %v", id, Tokens(a.Body(id)), Tokens(b.Body(id)))
		}
	}
}

func TestRemapElements(t *testing.T) {
	inner := Element{Loop: &Loop{Body: syms("x"), Count: 2, ID: 7}}
	elems := []Element{{Sym: "a"}, {Loop: &Loop{Body: []Element{{Sym: "b"}, inner}, Count: 3, ID: 9}}}

	if got := RemapElements(elems, nil); &got[0] != &elems[0] {
		t.Fatal("empty remap should return input unchanged")
	}
	out := RemapElements(elems, map[int]int{7: 1, 9: 0})
	if out[1].Loop.ID != 0 {
		t.Fatalf("outer ID = %d, want 0", out[1].Loop.ID)
	}
	if out[1].Loop.Body[1].Loop.ID != 1 {
		t.Fatalf("nested ID = %d, want 1", out[1].Loop.Body[1].Loop.ID)
	}
	// Original untouched (loops rebuilt, not mutated).
	if elems[1].Loop.ID != 9 || elems[1].Loop.Body[1].Loop.ID != 7 {
		t.Fatal("RemapElements mutated its input")
	}
}

// Concurrent overlays over one frozen base must be race-free (run with
// -race): every worker reads the base and writes only its own overlay.
func TestConcurrentOverlays(t *testing.T) {
	base := NewTable()
	base.Intern(syms("MPI_Init"))
	base.Intern(syms("MPI_Send", "MPI_Recv"))

	const workers = 8
	overlays := make([]*Table, workers)
	for i := range overlays {
		overlays[i] = NewOverlay(base)
	}
	var wg sync.WaitGroup
	for i, o := range overlays {
		wg.Add(1)
		go func(i int, o *Table) {
			defer wg.Done()
			toks := []string{"A", "B", "A", "B", "A", "B", "C"}
			if i%2 == 1 {
				toks = append(toks, "W", "W", "W")
			}
			Summarize(toks, 4, o)
			o.Intern(syms("shared"))
		}(i, o)
	}
	wg.Wait()
	for _, o := range overlays {
		base.Absorb(o)
	}
	if !base.Has(syms("shared")) {
		t.Fatal("absorbed body missing from base")
	}
	if !base.Has(syms("A", "B")) {
		t.Fatal("summarized loop body missing from base")
	}
	// No duplicate signatures in the merged table.
	seen := map[string]int{}
	for id := 0; id < base.Len(); id++ {
		sig := string(appendSig(nil, base.Body(id)))
		if prev, dup := seen[sig]; dup {
			t.Fatalf("duplicate body: id %d and %d both %q", prev, id, sig)
		}
		seen[sig] = id
	}
}
