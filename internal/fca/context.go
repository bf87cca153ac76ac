package fca

import (
	"fmt"
	"strings"
)

// Context is a formal context K = (G, M, I): objects G, attributes M, and
// the incidence relation I stored as per-object attribute sets (§III-B,
// Table IV). Intents live in a dense slice parallel to the object list and
// are all bound to one Interner, so Extent/Closure scans are pure bitset
// subset/intersection kernels.
type Context struct {
	in      *Interner
	objects []string       // insertion order
	index   map[string]int // object name -> position in objects/intents
	intents []AttrSet      // parallel to objects
	attrs   AttrSet        // M, the attribute universe
}

// NewContext returns an empty formal context over a fresh interner.
func NewContext() *Context { return NewContextWith(NewInterner()) }

// NewContextWith returns an empty formal context bound to in. A diff run
// passes one interner to both the normal and faulty contexts so their
// intents share a bit universe and stay directly comparable.
func NewContextWith(in *Interner) *Context {
	return &Context{in: in, index: make(map[string]int), attrs: &Set{in: in}}
}

// adopt translates an intent into this context's universe. Same-interner
// sets just clone; foreign sets re-intern their attributes in sorted order,
// so the IDs this context assigns never depend on the caller's insertion
// order.
func (c *Context) adopt(intent AttrSet) AttrSet {
	if intent == nil {
		return &Set{in: c.in}
	}
	if intent.Interner() == c.in {
		return intent.Clone()
	}
	out := &Set{in: c.in}
	for _, a := range intent.Sorted() {
		out.Add(a)
	}
	return out
}

// AddObject inserts object g with the given attribute set. Re-adding an
// object replaces its attributes.
func (c *Context) AddObject(g string, intent AttrSet) {
	adopted := c.adopt(intent)
	if i, ok := c.index[g]; ok {
		c.intents[i] = adopted
	} else {
		c.index[g] = len(c.objects)
		c.objects = append(c.objects, g)
		c.intents = append(c.intents, adopted)
	}
	c.attrs.bits.OrInPlace(adopted.bits)
}

// Objects returns the object names in insertion order.
func (c *Context) Objects() []string {
	out := make([]string, len(c.objects))
	copy(out, c.objects)
	return out
}

// Attributes returns M (a copy).
func (c *Context) Attributes() AttrSet { return c.attrs.Clone() }

// intentOf returns g's stored intent, or an empty set for unknown objects.
func (c *Context) intentOf(g string) AttrSet {
	if i, ok := c.index[g]; ok {
		return c.intents[i]
	}
	return &Set{in: c.in}
}

// Intent returns object g's attribute set (the derivation {g}′), nil if g
// is unknown.
func (c *Context) Intent(g string) AttrSet {
	i, ok := c.index[g]
	if !ok {
		return nil
	}
	return c.intents[i].Clone()
}

// Extent computes B′ = {g ∈ G : B ⊆ g′} for an attribute set B.
func (c *Context) Extent(b AttrSet) []string {
	var out []string
	for i, g := range c.objects {
		if b.SubsetOf(c.intents[i]) {
			out = append(out, g)
		}
	}
	return out
}

// CommonIntent computes A′ = ∩_{g∈A} g′ for an object list A; for an empty
// A it returns M (the standard FCA convention).
func (c *Context) CommonIntent(objs []string) AttrSet {
	if len(objs) == 0 {
		return c.attrs.Clone()
	}
	out := c.intentOf(objs[0]).Clone()
	for _, g := range objs[1:] {
		out = out.Intersect(c.intentOf(g))
	}
	return out
}

// CrossTable renders the context like Table IV: rows are objects, columns
// attributes (sorted), cells "×".
func (c *Context) CrossTable() string {
	attrs := c.attrs.Sorted()
	w := make([]int, len(attrs))
	nameW := 0
	for i, a := range attrs {
		w[i] = len(a)
	}
	for _, g := range c.objects {
		if len(g) > nameW {
			nameW = len(g)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", nameW, "")
	for i, a := range attrs {
		fmt.Fprintf(&b, " | %-*s", w[i], a)
	}
	b.WriteByte('\n')
	for i, g := range c.objects {
		fmt.Fprintf(&b, "%-*s", nameW, g)
		for j, a := range attrs {
			mark := ""
			if c.intents[i].Has(a) {
				mark = "x"
			}
			fmt.Fprintf(&b, " | %-*s", w[j], mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
