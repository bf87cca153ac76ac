package reftest

import "sort"

// Context is the pre-bitset formal context: per-object intents stored in a
// map of Sets.
type Context struct {
	objects []string       // insertion order
	intents map[string]Set // object -> attributes
	attrs   Set            // M, the attribute universe
}

// NewContext returns an empty formal context.
func NewContext() *Context {
	return &Context{intents: make(map[string]Set), attrs: New()}
}

// AddObject inserts object g with the given attribute set. Re-adding an
// object replaces its attributes.
func (c *Context) AddObject(g string, intent Set) {
	if _, exists := c.intents[g]; !exists {
		c.objects = append(c.objects, g)
	}
	c.intents[g] = intent.Clone()
	for a := range intent {
		c.attrs.Add(a)
	}
}

// Objects returns the object names in insertion order.
func (c *Context) Objects() []string {
	out := make([]string, len(c.objects))
	copy(out, c.objects)
	return out
}

// Attributes returns M (a copy).
func (c *Context) Attributes() Set { return c.attrs.Clone() }

// Intent returns object g's attribute set, nil if g is unknown.
func (c *Context) Intent(g string) Set {
	in, ok := c.intents[g]
	if !ok {
		return nil
	}
	return in.Clone()
}

// Extent computes B′ = {g ∈ G : B ⊆ g′} for an attribute set B.
func (c *Context) Extent(b Set) []string {
	var out []string
	for _, g := range c.objects {
		if b.SubsetOf(c.intents[g]) {
			out = append(out, g)
		}
	}
	return out
}

// CommonIntent computes A′ = ∩_{g∈A} g′; for empty A it returns M.
func (c *Context) CommonIntent(objs []string) Set {
	if len(objs) == 0 {
		return c.attrs.Clone()
	}
	out := c.intents[objs[0]].Clone()
	for _, g := range objs[1:] {
		out = out.Intersect(c.intents[g])
	}
	return out
}

// Closure computes B″ = (B′)′.
func (c *Context) Closure(b Set) Set {
	return c.CommonIntent(c.Extent(b))
}

// Concept is a formal concept (A, B) over the reference representation.
type Concept struct {
	Extent []string
	Intent Set
}

// Lattice is the pre-bitset incremental lattice: concepts keyed by the
// joined-string intent signature, with the original O(n³) Edges scan.
type Lattice struct {
	ctx      *Context
	concepts map[string]*Concept
}

// NewLattice returns an empty lattice over an empty context.
func NewLattice() *Lattice {
	return &Lattice{ctx: NewContext(), concepts: make(map[string]*Concept)}
}

// Context exposes the underlying formal context.
func (l *Lattice) Context() *Context { return l.ctx }

// AddObject is Godin's incremental insertion, exactly as the map era ran it.
func (l *Lattice) AddObject(g string, intent Set) {
	l.ctx.AddObject(g, intent)
	own := l.ctx.Intent(g)

	snapshot := make([]*Concept, 0, len(l.concepts))
	//lint:allow orderflow frozen reference implementation: the modified/generator scans over this snapshot are commutative (ensure keys by intent signature), exactly as the original shipped
	for _, c := range l.concepts {
		snapshot = append(snapshot, c)
	}
	for _, c := range snapshot {
		if c.Intent.SubsetOf(own) {
			c.Extent = append(c.Extent, g)
		}
	}
	for _, c := range snapshot {
		l.ensure(c.Intent.Intersect(own))
	}
	l.ensure(own)
}

func (l *Lattice) ensure(intent Set) {
	sig := intent.Signature()
	if _, ok := l.concepts[sig]; ok {
		return
	}
	l.concepts[sig] = &Concept{Extent: l.ctx.Extent(intent), Intent: intent.Clone()}
}

// Size reports the number of concepts including the on-demand bottom.
func (l *Lattice) Size() int { return len(l.Concepts()) }

// Concepts returns all concepts ordered by decreasing extent size then by
// intent signature; the bottom (intent = M) is synthesized when absent.
func (l *Lattice) Concepts() []*Concept {
	out := make([]*Concept, 0, len(l.concepts)+1)
	for _, c := range l.concepts {
		out = append(out, c)
	}
	m := l.ctx.Attributes()
	if _, ok := l.concepts[m.Signature()]; !ok && m.Len() > 0 {
		out = append(out, &Concept{Extent: l.ctx.Extent(m), Intent: m})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Extent) != len(out[j].Extent) {
			return len(out[i].Extent) > len(out[j].Extent)
		}
		return out[i].Intent.Signature() < out[j].Intent.Signature()
	})
	return out
}

// Leq reports the lattice order c1 ≤ c2.
func Leq(c1, c2 *Concept) bool { return c2.Intent.SubsetOf(c1.Intent) }

// Edges returns Hasse cover pairs with the original all-triples scan.
func (l *Lattice) Edges() [][2]int {
	cs := l.Concepts()
	var edges [][2]int
	for i, lo := range cs {
		for j, hi := range cs {
			if i == j || !Leq(lo, hi) || Leq(hi, lo) {
				continue
			}
			covered := true
			for k, mid := range cs {
				if k == i || k == j {
					continue
				}
				if Leq(lo, mid) && Leq(mid, hi) && !Leq(mid, lo) && !Leq(hi, mid) {
					covered = false
					break
				}
			}
			if covered {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return edges
}

// NextClosure is Ganter's batch algorithm over the reference representation
// (bool slices over the sorted attribute order).
func NextClosure(ctx *Context) []*Concept {
	attrs := ctx.Attributes().Sorted()
	m := len(attrs)
	index := make(map[string]int, m)
	for i, a := range attrs {
		index[a] = i
	}

	toSet := func(bits []bool) Set {
		s := New()
		for i, b := range bits {
			if b {
				s.Add(attrs[i])
			}
		}
		return s
	}
	closure := func(bits []bool) []bool {
		closed := ctx.Closure(toSet(bits))
		out := make([]bool, m)
		for a := range closed {
			out[index[a]] = true
		}
		return out
	}

	var concepts []*Concept
	emit := func(bits []bool) {
		in := toSet(bits)
		concepts = append(concepts, &Concept{Extent: ctx.Extent(in), Intent: in})
	}

	a := closure(make([]bool, m))
	emit(a)
	if m == 0 {
		return concepts
	}
	full := func(bits []bool) bool {
		for _, b := range bits {
			if !b {
				return false
			}
		}
		return true
	}
	for !full(a) {
		advanced := false
		for i := m - 1; i >= 0; i-- {
			if a[i] {
				continue
			}
			cand := make([]bool, m)
			copy(cand, a[:i])
			cand[i] = true
			b := closure(cand)
			ok := true
			for j := 0; j < i; j++ {
				if b[j] && !a[j] {
					ok = false
					break
				}
			}
			if ok {
				a = b
				emit(a)
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	return concepts
}
