package fca

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"difftrace/internal/obs"
)

func TestAttrSetOps(t *testing.T) {
	a := NewAttrSet("x", "y", "z")
	b := NewAttrSet("y", "z", "w")
	if got := a.Intersect(b).Sorted(); !reflect.DeepEqual(got, []string{"y", "z"}) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Union(b).Sorted(); !reflect.DeepEqual(got, []string{"w", "x", "y", "z"}) {
		t.Errorf("union = %v", got)
	}
	if !NewAttrSet("y").SubsetOf(a) || a.SubsetOf(b) {
		t.Error("subset wrong")
	}
	if !a.Equal(NewAttrSet("z", "y", "x")) {
		t.Error("equal wrong")
	}
	if a.Jaccard(b) != 0.5 {
		t.Errorf("jaccard = %f, want 0.5", a.Jaccard(b))
	}
	if NewAttrSet().Jaccard(NewAttrSet()) != 1 {
		t.Error("empty-empty jaccard should be 1")
	}
	if a.String() != "{x, y, z}" {
		t.Errorf("string = %q", a.String())
	}
	c := a.Clone()
	c.Add("q")
	if a.Has("q") {
		t.Error("Clone aliases storage")
	}
}

// tableIVContext builds the paper's Table IV formal context.
func tableIVContext() *Context {
	ctx := NewContext()
	common := []string{"MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "MPI_Finalize"}
	even := NewAttrSet(append([]string{"L0"}, common...)...)
	odd := NewAttrSet(append([]string{"L1"}, common...)...)
	ctx.AddObject("T0", even)
	ctx.AddObject("T1", odd)
	ctx.AddObject("T2", even)
	ctx.AddObject("T3", odd)
	return ctx
}

func TestContextBasics(t *testing.T) {
	ctx := tableIVContext()
	if got := ctx.Objects(); !reflect.DeepEqual(got, []string{"T0", "T1", "T2", "T3"}) {
		t.Errorf("objects = %v", got)
	}
	if ctx.Attributes().Len() != 6 {
		t.Errorf("|M| = %d", ctx.Attributes().Len())
	}
	if !ctx.Intent("T0").Has("L0") || ctx.Intent("T0").Has("L1") {
		t.Error("incidence wrong")
	}
	if got := ctx.Extent(NewAttrSet("L0")); !reflect.DeepEqual(got, []string{"T0", "T2"}) {
		t.Errorf("extent(L0) = %v", got)
	}
	if got := ctx.CommonIntent([]string{"T0", "T1"}).Sorted(); len(got) != 4 {
		t.Errorf("common intent = %v", got)
	}
	// Closure of {MPI_Init} is the set of attributes shared by all traces.
	if got := ctx.CommonIntent(ctx.Extent(NewAttrSet("MPI_Init"))); got.Len() != 4 {
		t.Errorf("closure = %v", got)
	}
	// Empty object list derives to M.
	if !ctx.CommonIntent(nil).Equal(ctx.Attributes()) {
		t.Error("empty derivation should be M")
	}
	if ctx.Intent("nope") != nil {
		t.Error("unknown object intent should be nil")
	}
}

func TestCrossTableRendering(t *testing.T) {
	out := tableIVContext().CrossTable()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 objects
		t.Fatalf("cross table rows = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "L0") || !strings.Contains(lines[0], "MPI_Finalize") {
		t.Errorf("header = %q", lines[0])
	}
	if strings.Count(lines[1], "x") != 5 { // T0 has 5 attributes
		t.Errorf("T0 row = %q", lines[1])
	}
}

func latticeFromContext(ctx *Context) *Lattice {
	l := NewLattice()
	for _, g := range ctx.Objects() {
		l.AddObject(g, ctx.Intent(g))
	}
	return l
}

func TestFigure3Lattice(t *testing.T) {
	l := latticeFromContext(tableIVContext())
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	cs := l.Concepts()
	if len(cs) != 4 {
		t.Fatalf("concepts = %d, want 4 (Figure 3):\n%s", len(cs), l.Render())
	}
	top := l.Top()
	if len(top.Extent) != 4 || top.Intent.Len() != 4 {
		t.Errorf("top = %s", top)
	}
	bottom := cs[len(cs)-1]
	if len(bottom.Extent) != 0 || bottom.Intent.Len() != 6 {
		t.Errorf("bottom = %s", bottom)
	}
	// Middle nodes separate even from odd traces.
	var mids []*Concept
	for _, c := range cs[1 : len(cs)-1] {
		mids = append(mids, c)
	}
	if len(mids) != 2 {
		t.Fatalf("middle concepts = %d", len(mids))
	}
	extents := []string{strings.Join(mids[0].Extent, ","), strings.Join(mids[1].Extent, ",")}
	sort.Strings(extents)
	if !reflect.DeepEqual(extents, []string{"T0,T2", "T1,T3"}) {
		t.Errorf("middle extents = %v", extents)
	}
}

func TestLatticeEdgesFigure3(t *testing.T) {
	l := latticeFromContext(tableIVContext())
	edges := l.Edges()
	// Diamond: bottom->mid1, bottom->mid2, mid1->top, mid2->top.
	if len(edges) != 4 {
		t.Fatalf("edges = %v", edges)
	}
	cs := l.Concepts()
	for _, e := range edges {
		if !Leq(cs[e[0]], cs[e[1]]) {
			t.Errorf("edge %v not ordered", e)
		}
	}
}

func TestLatticeRender(t *testing.T) {
	l := latticeFromContext(tableIVContext())
	out := l.Render()
	if !strings.Contains(out, "4 concepts") {
		t.Errorf("render:\n%s", out)
	}
	// Reduced labeling: some node introduces exactly L0.
	if !strings.Contains(out, "introduces {L0}") {
		t.Errorf("render missing reduced label:\n%s", out)
	}
}

func TestEmptyLattice(t *testing.T) {
	l := NewLattice()
	if l.Top() != nil || l.Size() != 0 {
		t.Error("empty lattice should have no concepts")
	}
	if err := l.Verify(); err != nil {
		t.Error(err)
	}
}

func TestDuplicateIntents(t *testing.T) {
	l := NewLattice()
	l.AddObject("a", NewAttrSet("x", "y"))
	l.AddObject("b", NewAttrSet("x", "y"))
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	cs := l.Concepts()
	// One proper concept {a,b}:{x,y} plus no distinct bottom needed (it
	// coincides: M = {x,y} has extent {a,b}).
	if len(cs) != 1 {
		t.Fatalf("concepts = %v", cs)
	}
	if len(cs[0].Extent) != 2 {
		t.Errorf("extent = %v", cs[0].Extent)
	}
}

func TestNextClosureTableIV(t *testing.T) {
	cs := NextClosure(tableIVContext())
	if len(cs) != 4 {
		t.Fatalf("NextClosure found %d concepts, want 4", len(cs))
	}
}

func conceptSigs(cs []*Concept) []string {
	sigs := make([]string, len(cs))
	for i, c := range cs {
		sigs[i] = c.Intent.String() + "##" + strings.Join(c.Extent, "|")
	}
	sort.Strings(sigs)
	return sigs
}

// Property: the incremental lattice and NextClosure agree on random
// contexts — each is an independent oracle for the other.
func TestQuickGodinEqualsNextClosure(t *testing.T) {
	attrs := []string{"a", "b", "c", "d", "e", "f"}
	f := func(seed int64, nObj uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nObj)%6 + 1
		ctx := NewContext()
		l := NewLattice()
		for i := 0; i < n; i++ {
			in := NewAttrSet()
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					in.Add(a)
				}
			}
			name := string(rune('A' + i))
			ctx.AddObject(name, in)
			l.AddObject(name, in)
		}
		if err := l.Verify(); err != nil {
			t.Logf("verify: %v", err)
			return false
		}
		got := conceptSigs(l.Concepts())
		want := conceptSigs(NextClosure(ctx))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Jaccard similarity is a proper similarity (symmetric, 1 on
// identical sets, in [0,1]).
func TestQuickJaccardProperties(t *testing.T) {
	f := func(xa, xb uint16) bool {
		mk := func(bits uint16) AttrSet {
			s := NewAttrSet()
			for i := 0; i < 10; i++ {
				if bits&(1<<i) != 0 {
					s.Add(string(rune('a' + i)))
				}
			}
			return s
		}
		a, b := mk(xa), mk(xb)
		j1, j2 := a.Jaccard(b), b.Jaccard(a)
		if j1 != j2 || j1 < 0 || j1 > 1 {
			return false
		}
		if a.Equal(b) && j1 != 1 {
			return false
		}
		return a.Jaccard(a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: lattice size is monotone in objects and Verify always holds.
func TestQuickLatticeInvariants(t *testing.T) {
	attrs := []string{"p", "q", "r", "s"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLattice()
		prev := 0
		for i := 0; i < 5; i++ {
			in := NewAttrSet()
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					in.Add(a)
				}
			}
			l.AddObject(string(rune('A'+i)), in)
			if err := l.Verify(); err != nil {
				return false
			}
			size := l.Size()
			if size < prev-1 { // bottom may merge into a real concept
				return false
			}
			prev = size
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConceptsSortCache: Size/Top/Bottom/Concepts share one cached sorted
// view that is rebuilt at most once per AddObject batch — the regression
// guard for the old behavior of re-sorting every call, counted through the
// "fca.concepts.sorts" obs counter.
func TestConceptsSortCache(t *testing.T) {
	run := obs.NewRun("test")
	l := NewLattice()
	l.Observe(run)
	ctx := tableIVContext()
	for _, g := range ctx.Objects() {
		l.AddObject(g, ctx.Intent(g))
	}
	sorts := run.Counter("fca.concepts.sorts")
	before := sorts.Value()
	for i := 0; i < 10; i++ {
		l.Size()
		l.Top()
		l.Concepts()
		l.Concepts()
	}
	if got := sorts.Value() - before; got != 1 {
		t.Errorf("40 read calls cost %d sorts, want exactly 1", got)
	}
	// A mutation invalidates the cache: exactly one more rebuild.
	l.AddObject("T4", NewAttrSet("L0", "MPI_Init"))
	l.Size()
	l.Size()
	if got := sorts.Value() - before; got != 2 {
		t.Errorf("after AddObject: %d sorts total, want 2", got)
	}
}

// TestInterner: dense first-seen IDs, stable lookups, and round-tripping.
func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b || in.Intern("alpha") != a || in.Len() != 2 {
		t.Fatalf("interning broken: a=%d b=%d len=%d", a, b, in.Len())
	}
	if in.Name(a) != "alpha" || in.Name(b) != "beta" {
		t.Error("Name round-trip broken")
	}
	if id, ok := in.Lookup("beta"); !ok || id != b {
		t.Error("Lookup broken")
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Error("Lookup invented an ID")
	}
}

// TestBitSetKernels exercises the word kernels across the 64-bit boundary,
// where length-tolerance bugs live.
func TestBitSetKernels(t *testing.T) {
	var a, b BitSet
	a.Set(1)
	a.Set(63)
	a.Set(64)
	b.Set(63)
	if a.PopCount() != 3 || b.PopCount() != 1 {
		t.Fatalf("popcounts %d/%d", a.PopCount(), b.PopCount())
	}
	if !b.SubsetOf(a) || a.SubsetOf(b) {
		t.Error("subset across word boundary broken")
	}
	if got := a.And(b).PopCount(); got != 1 {
		t.Errorf("and popcount = %d", got)
	}
	if got := a.Or(b).PopCount(); got != 3 {
		t.Errorf("or popcount = %d", got)
	}
	if got := a.AndNot(b).PopCount(); got != 2 {
		t.Errorf("andnot popcount = %d", got)
	}
	if a.IntersectCount(b) != 1 {
		t.Error("intersect count broken")
	}
	// Equal must ignore trailing zero words.
	c := a.Clone()
	c = append(c, 0, 0)
	if !a.Equal(c) || a.Signature() != c.Signature() {
		t.Error("trailing zero words changed equality or signature")
	}
	var got []int
	a.ForEach(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{1, 63, 64}) {
		t.Errorf("ForEach = %v", got)
	}
	// Prefix/AnyBelowNotIn: the lectic kernels.
	if p := a.Prefix(64); p.PopCount() != 2 || p.Has(64) {
		t.Errorf("prefix(64) = %v", p)
	}
	if !a.AnyBelowNotIn(b, 64) { // a has bit 1 below 64 that b lacks
		t.Error("AnyBelowNotIn missed bit 1")
	}
	if b.AnyBelowNotIn(a, 65) { // everything in b below 65 is in a
		t.Error("AnyBelowNotIn false positive")
	}
}

func BenchmarkGodinIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	intents := make([]AttrSet, 32)
	attrs := make([]string, 20)
	for i := range attrs {
		attrs[i] = string(rune('a' + i))
	}
	for i := range intents {
		in := NewAttrSet()
		for _, a := range attrs {
			if rng.Intn(3) == 0 {
				in.Add(a)
			}
		}
		intents[i] = in
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewLattice()
		for j, in := range intents {
			l.AddObject(string(rune('A'+j)), in)
		}
	}
}
