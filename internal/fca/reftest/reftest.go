// Package reftest preserves the original map-based FCA representation as a
// reference implementation: Set is the old map[string]struct{} AttrSet
// verbatim, and Lattice/Context/NextClosure are the old map-keyed engine.
// It exists for one job only: the differential equivalence suite asserts
// the bitset fca package agrees with it operation by operation. It is
// deliberately frozen: do not optimize or extend it.
package reftest

import (
	"sort"
	"strings"
)

// Set is a set of attribute names — the pre-bitset AttrSet.
type Set map[string]struct{}

// New builds a set from the given attributes.
func New(attrs ...string) Set {
	s := make(Set, len(attrs))
	for _, a := range attrs {
		s[a] = struct{}{}
	}
	return s
}

// Add inserts a.
func (s Set) Add(a string) { s[a] = struct{}{} }

// Has reports membership.
func (s Set) Has(a string) bool { _, ok := s[a]; return ok }

// Len reports cardinality.
func (s Set) Len() int { return len(s) }

// Clone returns a copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for a := range s {
		c[a] = struct{}{}
	}
	return c
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	small, big := s, o
	if len(big) < len(small) {
		small, big = big, small
	}
	out := make(Set)
	for a := range small {
		if big.Has(a) {
			out[a] = struct{}{}
		}
	}
	return out
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	out := s.Clone()
	for a := range o {
		out[a] = struct{}{}
	}
	return out
}

// SubsetOf reports s ⊆ o.
func (s Set) SubsetOf(o Set) bool {
	if len(s) > len(o) {
		return false
	}
	for a := range s {
		if !o.Has(a) {
			return false
		}
	}
	return true
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	return len(s) == len(o) && s.SubsetOf(o)
}

// Jaccard returns |s∩o| / |s∪o| (1 for two empty sets, by convention).
func (s Set) Jaccard(o Set) float64 {
	inter := 0
	for a := range s {
		if o.Has(a) {
			inter++
		}
	}
	union := len(s) + len(o) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Sorted returns the attributes in lexicographic order.
func (s Set) Sorted() []string {
	out := make([]string, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Signature returns the canonical string key of the set — the join the
// bitset implementation's 64-bit FNV signature replaced.
func (s Set) Signature() string { return strings.Join(s.Sorted(), "\x00") }

// String renders like "{a, b, c}".
func (s Set) String() string { return "{" + strings.Join(s.Sorted(), ", ") + "}" }
