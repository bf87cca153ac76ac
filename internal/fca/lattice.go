package fca

import (
	"fmt"
	"sort"
	"strings"

	"difftrace/internal/obs"
)

// Concept is a formal concept (A, B): extent A = B′ and intent B = A′.
type Concept struct {
	Extent []string // object names, in context insertion order
	Intent AttrSet
}

// String renders like "({T0, T2}, {L0, MPI_Init})".
func (c *Concept) String() string {
	return fmt.Sprintf("({%s}, %s)", strings.Join(c.Extent, ", "), c.Intent)
}

// Lattice is a concept lattice maintained incrementally: each AddObject
// minimally updates the set of concepts, following Godin's incremental
// concept-formation algorithm (§III-B). Batch access to the whole context
// is never required — the property that makes the approach viable for long
// HPC trace streams, unlike Ganter's NextClosure (see nextclosure.go).
//
// Concepts live in a dense slice in materialization order; the lookup
// index keys by the 64-bit intent signature with an Equal check per bucket
// entry, so a hash collision can never merge two distinct concepts.
type Lattice struct {
	ctx      *Context
	concepts []*Concept       // materialization order
	index    map[uint64][]int // intent signature -> indices into concepts

	// sorted is the cached Concepts() view (extent size desc, then sorted
	// intent strings asc). It is invalidated by AddObject and rebuilt at
	// most once per batch of insertions, so Size/Top/Bottom no longer pay a
	// full sort per call.
	sorted []*Concept

	// Godin-step accounting (Observe): nil-safe counter handles, so an
	// unobserved lattice pays only a nil check per event.
	obsObjects, obsSteps, obsConcepts, obsSorts *obs.Counter
}

// NewLattice returns an empty lattice over an empty context with a fresh
// attribute interner.
func NewLattice() *Lattice { return NewLatticeWith(NewInterner()) }

// NewLatticeWith returns an empty lattice whose context interns into in.
// core.DiffRun hands the same interner to the normal and faulty lattices of
// a diff so their intents occupy one bit universe.
func NewLatticeWith(in *Interner) *Lattice {
	return &Lattice{ctx: NewContextWith(in), index: make(map[uint64][]int)}
}

// Observe routes the lattice's construction accounting into r:
// "fca.godin.objects" (AddObject calls), "fca.godin.steps" (concepts
// visited per insertion — the quantity the Godin-vs-Ganter ablation
// compares), "fca.godin.concepts" (concepts materialized), and
// "fca.concepts.sorts" (rebuilds of the cached sorted view — the
// regression counter proving Size/Top/Bottom don't re-sort per call). With
// these counters any BuildLattices run exposes the Table VIII-style
// incremental cost, not just the dedicated benchmark.
func (l *Lattice) Observe(r *obs.Run) {
	l.obsObjects = r.Counter("fca.godin.objects")
	l.obsSteps = r.Counter("fca.godin.steps")
	l.obsConcepts = r.Counter("fca.godin.concepts")
	l.obsSorts = r.Counter("fca.concepts.sorts")
}

// Context exposes the underlying formal context.
func (l *Lattice) Context() *Context { return l.ctx }

// AddObject injects object g with its attribute set into the lattice,
// updating concepts incrementally:
//
//   - every concept whose intent is contained in g's intent gains g in its
//     extent ("modified" concepts in Godin's terminology);
//   - for every existing intent X, the intersection X ∩ g′ becomes a new
//     concept if it is not closed already ("new" concepts generated by g);
//   - g's own intent becomes a concept if new.
func (l *Lattice) AddObject(g string, intent AttrSet) {
	l.obsObjects.Add(1)
	l.ctx.AddObject(g, intent)
	own := l.ctx.Intent(g) // defensive copy, bound to the context interner

	// The modified/generator scans cover the concepts that existed before
	// this insertion; ensure() appends new ones past n.
	n := len(l.concepts)
	snapshot := l.concepts[:n]
	// Modified concepts: g joins every extent whose intent it satisfies.
	for _, c := range snapshot {
		if c.Intent.SubsetOf(own) {
			c.Extent = append(c.Extent, g)
		}
	}
	// Generator intersections.
	for _, c := range snapshot {
		l.ensure(c.Intent.Intersect(own))
	}
	l.ensure(own)
	// Each insertion visits every pre-existing concept twice (modified scan
	// + generator intersections) plus the object's own intent.
	l.obsSteps.Add(int64(2*n + 1))
	l.sorted = nil
}

// ensure materializes the concept with the given intent if absent.
func (l *Lattice) ensure(intent AttrSet) {
	sig := intent.Signature()
	for _, i := range l.index[sig] {
		if l.concepts[i].Intent.Equal(intent) {
			return
		}
	}
	l.obsConcepts.Add(1)
	l.index[sig] = append(l.index[sig], len(l.concepts))
	l.concepts = append(l.concepts, &Concept{Extent: l.ctx.Extent(intent), Intent: intent.Clone()})
}

// hasIntent reports whether a concept with exactly this intent exists.
func (l *Lattice) hasIntent(intent AttrSet) bool {
	for _, i := range l.index[intent.Signature()] {
		if l.concepts[i].Intent.Equal(intent) {
			return true
		}
	}
	return false
}

// Size reports the number of concepts, counting the bottom concept that
// Concepts() materializes on demand.
func (l *Lattice) Size() int { return len(l.Concepts()) }

// Concepts returns all concepts, ordered by decreasing extent size and then
// by sorted attribute names (deterministic — byte-for-byte the order the
// map-based implementation produced). The bottom concept (intent = M) is
// included even when no single object carries every attribute. The view is
// cached until the next AddObject; callers must treat it as read-only.
func (l *Lattice) Concepts() []*Concept {
	if l.sorted == nil {
		l.rebuildSorted()
	}
	return l.sorted
}

// rebuildSorted recomputes the cached Concepts() view. The tie-break key is
// the NUL-joined sorted attribute list — exactly the signature string the
// map-era AttrSet sorted by, so concept ordering (and every golden render)
// is unchanged.
func (l *Lattice) rebuildSorted() {
	l.obsSorts.Add(1)
	type keyed struct {
		c   *Concept
		key string
	}
	out := make([]keyed, 0, len(l.concepts)+1)
	for _, c := range l.concepts {
		out = append(out, keyed{c, strings.Join(c.Intent.Sorted(), "\x00")})
	}
	m := l.ctx.Attributes()
	if m.Len() > 0 && !l.hasIntent(m) {
		out = append(out, keyed{&Concept{Extent: l.ctx.Extent(m), Intent: m},
			strings.Join(m.Sorted(), "\x00")})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].c.Extent) != len(out[j].c.Extent) {
			return len(out[i].c.Extent) > len(out[j].c.Extent)
		}
		return out[i].key < out[j].key
	})
	l.sorted = make([]*Concept, len(out))
	for i, k := range out {
		l.sorted[i] = k.c
	}
}

// Top returns the supremum (full extent); nil on an empty lattice.
func (l *Lattice) Top() *Concept {
	cs := l.Concepts()
	if len(cs) == 0 {
		return nil
	}
	return cs[0]
}

// Leq reports the lattice order c1 ≤ c2 (extent containment, equivalently
// intent reverse containment).
func Leq(c1, c2 *Concept) bool { return c2.Intent.SubsetOf(c1.Intent) }

// Edges returns the Hasse diagram cover pairs (i, j) meaning
// Concepts()[i] is covered by Concepts()[j] (i strictly below j with
// nothing in between).
//
// The search is levelwise: for each lower concept, candidate uppers (strict
// intent subsets) are visited in decreasing intent popcount, and a
// candidate is a cover exactly when its intent is not contained in an
// already-accepted cover's intent — any concept strictly between the pair
// would itself lie under some earlier, larger-intent cover. That replaces
// the O(n³) all-triples scan of the map era with O(n²) subset kernels plus
// a short dominance check per candidate.
func (l *Lattice) Edges() [][2]int {
	cs := l.Concepts()
	var edges [][2]int
	cand := make([]int, 0, len(cs))
	covers := make([]int, 0, 8)
	for i, lo := range cs {
		cand = cand[:0]
		for j, hi := range cs {
			if i != j && Leq(lo, hi) && !Leq(hi, lo) {
				cand = append(cand, j)
			}
		}
		sort.Slice(cand, func(a, b int) bool {
			pa, pb := cs[cand[a]].Intent.Len(), cs[cand[b]].Intent.Len()
			if pa != pb {
				return pa > pb
			}
			return cand[a] < cand[b]
		})
		covers = covers[:0]
		for _, j := range cand {
			dominated := false
			for _, a := range covers {
				if cs[j].Intent.SubsetOf(cs[a].Intent) {
					dominated = true
					break
				}
			}
			if !dominated {
				covers = append(covers, j)
			}
		}
		sort.Ints(covers)
		for _, j := range covers {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

// Render prints the lattice level by level (Figure 3 style): each concept's
// extent plus the attributes it introduces relative to its upper covers
// ("reduced labeling"), so the top node shows the attributes shared by all
// traces and lower nodes only what distinguishes them.
func (l *Lattice) Render() string {
	cs := l.Concepts()
	edges := l.Edges()
	uppers := make(map[int][]int)
	for _, e := range edges {
		uppers[e[0]] = append(uppers[e[0]], e[1])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "concept lattice: %d concepts\n", len(cs))
	for i, c := range cs {
		var inherited BitSet
		for _, u := range uppers[i] {
			inherited.OrInPlace(cs[u].Intent.Bits())
		}
		own := &Set{in: l.ctx.in, bits: c.Intent.Bits().AndNot(inherited)}
		label := own.String()
		if len(uppers[i]) == 0 {
			label = c.Intent.String()
		}
		fmt.Fprintf(&b, "  [%d] extent={%s} introduces %s\n",
			i, strings.Join(c.Extent, ", "), label)
	}
	return b.String()
}

// Verify checks the lattice invariants against its context: every stored
// concept must satisfy A′ = B and B′ = A. It returns the first violation.
// Used by tests and as a cheap self-check in experiments.
func (l *Lattice) Verify() error {
	for _, c := range l.Concepts() {
		wantExtent := l.ctx.Extent(c.Intent)
		if strings.Join(wantExtent, "|") != strings.Join(c.Extent, "|") {
			return fmt.Errorf("fca: concept %s: extent mismatch (want %v)", c, wantExtent)
		}
		wantIntent := l.ctx.CommonIntent(c.Extent)
		if !wantIntent.Equal(c.Intent) {
			return fmt.Errorf("fca: concept %s: intent not closed (want %s)", c, wantIntent)
		}
	}
	return nil
}
