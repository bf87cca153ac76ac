// Differential equivalence suite: the bitset-backed fca.AttrSet must agree
// with the frozen map-based reference on every operation, for attribute
// universes from a handful of names up to 10k. Sets are compared through
// their observable string API (Sorted/Has/Len/String), never through
// representation internals, so the suite stays valid no matter how the
// bitset layout evolves.
package reftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"difftrace/internal/fca"
)

// universe returns n distinct attribute names. Names share long prefixes on
// purpose so map-hashing and string-compare behavior is exercised, not just
// single-letter toys.
func universe(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("MPI_Attr_%06d", i)
	}
	return out
}

// pair is one random subset drawn in both representations.
type pair struct {
	bs  fca.AttrSet
	ref Set
}

// drawPair picks each attribute of the universe with probability p, adding
// it to both representations in the same (shuffled) order.
func drawPair(rng *rand.Rand, in *fca.Interner, attrs []string, p float64) pair {
	chosen := make([]string, 0, len(attrs))
	for _, a := range attrs {
		if rng.Float64() < p {
			chosen = append(chosen, a)
		}
	}
	rng.Shuffle(len(chosen), func(i, j int) { chosen[i], chosen[j] = chosen[j], chosen[i] })
	pr := pair{bs: fca.NewAttrSetIn(in), ref: New()}
	for _, a := range chosen {
		pr.bs.Add(a)
		pr.ref.Add(a)
	}
	return pr
}

// mustMatch fails unless the bitset and reference sets are observably equal.
func mustMatch(t *testing.T, label string, bs fca.AttrSet, ref Set) {
	t.Helper()
	if got, want := bs.Sorted(), ref.Sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Sorted %v != reference %v", label, got, want)
	}
	if bs.Len() != ref.Len() {
		t.Fatalf("%s: Len %d != reference %d", label, bs.Len(), ref.Len())
	}
	if bs.String() != ref.String() {
		t.Fatalf("%s: String %q != reference %q", label, bs.String(), ref.String())
	}
}

// checkOps runs every AttrSet operation on a random pair of sets in both
// representations and cross-checks the results.
func checkOps(t *testing.T, rng *rand.Rand, in *fca.Interner, attrs []string, p float64) {
	t.Helper()
	a := drawPair(rng, in, attrs, p)
	b := drawPair(rng, in, attrs, p)
	mustMatch(t, "a", a.bs, a.ref)
	mustMatch(t, "b", b.bs, b.ref)
	mustMatch(t, "intersect", a.bs.Intersect(b.bs), a.ref.Intersect(b.ref))
	mustMatch(t, "union", a.bs.Union(b.bs), a.ref.Union(b.ref))
	if got, want := a.bs.SubsetOf(b.bs), a.ref.SubsetOf(b.ref); got != want {
		t.Fatalf("SubsetOf %v != reference %v (a=%s b=%s)", got, want, a.bs, b.bs)
	}
	if got, want := a.bs.Equal(b.bs), a.ref.Equal(b.ref); got != want {
		t.Fatalf("Equal %v != reference %v", got, want)
	}
	if got, want := a.bs.Jaccard(b.bs), a.ref.Jaccard(b.ref); got != want {
		t.Fatalf("Jaccard %v != reference %v", got, want)
	}
	// Membership spot checks across the whole universe would be O(n²);
	// sample a few attributes instead.
	for k := 0; k < 8 && len(attrs) > 0; k++ {
		at := attrs[rng.Intn(len(attrs))]
		if a.bs.Has(at) != a.ref.Has(at) {
			t.Fatalf("Has(%q) disagrees with reference", at)
		}
	}
	// Signature-equality: within one interner, equal sets hash equally and
	// (FNV collisions aside — none in this seeded corpus) unequal sets
	// differ, matching the reference's exact string signature.
	sigEq := a.bs.Signature() == b.bs.Signature()
	refEq := a.ref.Signature() == b.ref.Signature()
	if sigEq != refEq {
		t.Fatalf("signature equality %v != reference %v (a=%s b=%s)", sigEq, refEq, a.bs, b.bs)
	}
	// The intersection derived via the subset route must agree too:
	// a ⊆ b ⇔ a∩b = a, in both representations.
	if a.bs.SubsetOf(b.bs) != a.bs.Intersect(b.bs).Equal(a.bs) {
		t.Fatal("bitset: SubsetOf inconsistent with Intersect/Equal")
	}
}

// TestEquivAttrSetUniverses drives the differential check over universes
// from 3 to 10k attributes, at sparse/medium/dense fill rates, with sets
// sharing one interner (the production shape: word-kernel fast paths).
func TestEquivAttrSetUniverses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 17, 63, 64, 65, 300, 1000, 10000} {
		attrs := universe(n)
		rounds := 40
		if n >= 1000 {
			rounds = 4 // large universes: fewer, fatter rounds
		}
		for _, p := range []float64{0.02, 0.5, 0.95} {
			for r := 0; r < rounds; r++ {
				in := fca.NewInterner()
				checkOps(t, rng, in, attrs, p)
			}
		}
	}
}

// TestEquivAttrSetCrossInterner re-runs the suite with the two operand sets
// bound to different interners, exercising the string-remapping slow path
// that ad-hoc callers (tests, examples) hit.
func TestEquivAttrSetCrossInterner(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrs := universe(200)
	for r := 0; r < 60; r++ {
		a := drawPair(rng, fca.NewInterner(), attrs, 0.3)
		b := drawPair(rng, fca.NewInterner(), attrs, 0.3)
		mustMatch(t, "intersect", a.bs.Intersect(b.bs), a.ref.Intersect(b.ref))
		mustMatch(t, "union", a.bs.Union(b.bs), a.ref.Union(b.ref))
		if a.bs.SubsetOf(b.bs) != a.ref.SubsetOf(b.ref) {
			t.Fatal("cross-interner SubsetOf disagrees")
		}
		if a.bs.Equal(b.bs) != a.ref.Equal(b.ref) {
			t.Fatal("cross-interner Equal disagrees")
		}
		if a.bs.Jaccard(b.bs) != a.ref.Jaccard(b.ref) {
			t.Fatal("cross-interner Jaccard disagrees")
		}
	}
}

// TestEquivSignatureInsertionOrder: within one interner the signature is a
// function of the set only — the order attributes were added (and the order
// the interner first saw other attributes) must not leak in.
func TestEquivSignatureInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	attrs := universe(128)
	in := fca.NewInterner()
	// Pre-intern some noise so the chosen attrs get scattered IDs.
	for _, a := range attrs {
		if rng.Intn(2) == 0 {
			fca.NewAttrSetIn(in, a)
		}
	}
	chosen := attrs[:40]
	a := fca.NewAttrSetIn(in, chosen...)
	perm := append([]string(nil), chosen...)
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	b := fca.NewAttrSetIn(in, perm...)
	if !a.Equal(b) {
		t.Fatal("same attributes, different insertion order: not Equal")
	}
	if a.Signature() != b.Signature() {
		t.Fatal("same attributes, different insertion order: signatures differ")
	}
}

// TestEquivLattice cross-checks whole lattices: Godin + NextClosure on the
// bitset engine against Godin + NextClosure on the frozen reference, over
// random contexts.
func TestEquivLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attrs := universe(9)
	for round := 0; round < 50; round++ {
		nObj := rng.Intn(7) + 1
		bl := fca.NewLattice()
		rl := NewLattice()
		rctx := NewContext()
		for i := 0; i < nObj; i++ {
			var names []string
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					names = append(names, a)
				}
			}
			g := fmt.Sprintf("T%d", i)
			bl.AddObject(g, fca.NewAttrSet(names...))
			rl.AddObject(g, New(names...))
			rctx.AddObject(g, New(names...))
		}
		bcs, rcs := bl.Concepts(), rl.Concepts()
		if len(bcs) != len(rcs) {
			t.Fatalf("round %d: %d concepts != reference %d", round, len(bcs), len(rcs))
		}
		for i := range bcs {
			if !reflect.DeepEqual(bcs[i].Extent, rcs[i].Extent) {
				t.Fatalf("round %d concept %d: extent %v != reference %v",
					round, i, bcs[i].Extent, rcs[i].Extent)
			}
			if got, want := bcs[i].Intent.Sorted(), rcs[i].Intent.Sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d concept %d: intent %v != reference %v", round, i, got, want)
			}
		}
		if got, want := bl.Edges(), rl.Edges(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: edges %v != reference %v", round, got, want)
		}
		if got, want := len(fca.NextClosure(bl.Context())), len(NextClosure(rctx)); got != want {
			t.Fatalf("round %d: NextClosure %d concepts != reference %d", round, got, want)
		}
	}
}

// FuzzEquivAttrSet interprets the fuzz input as an op script over a 128-name
// universe — add to a, add to b, intersect, union — and cross-checks every
// intermediate against the reference. Runs as a deterministic seed-replay
// test in `go test` via the checked-in corpus.
func FuzzEquivAttrSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 130, 131, 4, 4, 4})
	f.Add([]byte{255, 254, 253, 0, 0, 128, 129, 200, 64, 63})
	f.Fuzz(func(t *testing.T, script []byte) {
		attrs := universe(128)
		in := fca.NewInterner()
		abs, aref := fca.NewAttrSetIn(in), New()
		bbs, bref := fca.NewAttrSetIn(in), New()
		for _, op := range script {
			switch {
			case op < 128: // add attrs[op] to a
				abs.Add(attrs[op])
				aref.Add(attrs[op])
			case op < 192: // add attrs[op-128] (and a neighbor) to b
				bbs.Add(attrs[op-128])
				bref.Add(attrs[op-128])
			default: // rebind a to a∩b or a∪b
				if op%2 == 0 {
					abs, aref = abs.Intersect(bbs), aref.Intersect(bref)
				} else {
					abs, aref = abs.Union(bbs), aref.Union(bref)
				}
			}
		}
		mustMatch(t, "a", abs, aref)
		mustMatch(t, "b", bbs, bref)
		if abs.SubsetOf(bbs) != aref.SubsetOf(bref) {
			t.Fatal("SubsetOf disagrees with reference")
		}
		if abs.Equal(bbs) != aref.Equal(bref) {
			t.Fatal("Equal disagrees with reference")
		}
		if abs.Jaccard(bbs) != aref.Jaccard(bref) {
			t.Fatal("Jaccard disagrees with reference")
		}
	})
}
