package fca

import "math/bits"

const wordBits = 64

// BitSet is a word-packed set of small non-negative integers — the dense
// representation behind AttrSet once attribute strings have been interned.
// All kernels tolerate operands of different lengths (missing high words
// read as zero), so sets over a growing attribute universe never need
// re-padding.
type BitSet []uint64

// Set inserts i, growing the word slice as needed.
func (b *BitSet) Set(i int) {
	w := i / wordBits
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % wordBits)
}

// Has reports membership of i.
func (b BitSet) Has(i int) bool {
	w := i / wordBits
	return w < len(b) && b[w]&(1<<(i%wordBits)) != 0
}

// PopCount returns the cardinality.
func (b BitSet) PopCount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (b BitSet) Clone() BitSet {
	if len(b) == 0 {
		return nil
	}
	out := make(BitSet, len(b))
	copy(out, b)
	return out
}

// And returns b ∩ o.
func (b BitSet) And(o BitSet) BitSet {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	out := make(BitSet, n)
	for i := 0; i < n; i++ {
		out[i] = b[i] & o[i]
	}
	return out
}

// AndInPlace replaces b with b ∩ o.
func (b *BitSet) AndInPlace(o BitSet) {
	s := *b
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
}

// Or returns b ∪ o.
func (b BitSet) Or(o BitSet) BitSet {
	long, short := b, o
	if len(short) > len(long) {
		long, short = short, long
	}
	out := long.Clone()
	for i := range short {
		out[i] |= short[i]
	}
	return out
}

// OrInPlace folds o into b.
func (b *BitSet) OrInPlace(o BitSet) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	s := *b
	for i := range o {
		s[i] |= o[i]
	}
}

// AndNot returns b \ o.
func (b BitSet) AndNot(o BitSet) BitSet {
	out := b.Clone()
	for i := range out {
		if i < len(o) {
			out[i] &^= o[i]
		}
	}
	return out
}

// SubsetOf reports b ⊆ o.
func (b BitSet) SubsetOf(o BitSet) bool {
	for i, w := range b {
		if i < len(o) {
			if w&^o[i] != 0 {
				return false
			}
		} else if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports set equality (length-tolerant: trailing zero words are
// insignificant).
func (b BitSet) Equal(o BitSet) bool {
	long, short := b, o
	if len(short) > len(long) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// IntersectCount returns |b ∩ o| without materializing the intersection —
// the popcount kernel behind Jaccard cells.
func (b BitSet) IntersectCount(o BitSet) int {
	n := len(b)
	if len(o) < n {
		n = len(o)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}

// Prefix returns a copy of the bits strictly below i (the lectic-order
// helper NextClosure uses).
func (b BitSet) Prefix(i int) BitSet {
	w, r := i/wordBits, i%wordBits
	n := w
	if r > 0 {
		n = w + 1
	}
	if len(b) < n {
		n = len(b)
	}
	out := make(BitSet, n)
	copy(out, b[:n])
	if r > 0 && w < len(out) {
		out[w] &= (1 << r) - 1
	}
	return out
}

// AnyBelowNotIn reports whether b has a bit strictly below i that o lacks —
// the lectic successor test (b is rejected if it adds an attribute before
// position i).
func (b BitSet) AnyBelowNotIn(o BitSet, i int) bool {
	w, r := i/wordBits, i%wordBits
	for k := 0; k < w && k < len(b); k++ {
		d := b[k]
		if k < len(o) {
			d &^= o[k]
		}
		if d != 0 {
			return true
		}
	}
	if r > 0 && w < len(b) {
		d := b[w] & ((1 << r) - 1)
		if w < len(o) {
			d &^= o[w]
		}
		if d != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order.
func (b BitSet) ForEach(fn func(i int)) {
	for k, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			fn(k*wordBits + t)
			w &= w - 1
		}
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Signature returns an allocation-free 64-bit FNV-1a hash over the words up
// to the last non-zero word, so equal sets hash equally regardless of slice
// capacity. It replaces the sorted-strings.Join signature of the map-based
// AttrSet; callers that key by signature must still confirm with Equal,
// since 64-bit hashes can collide.
func (b BitSet) Signature() uint64 {
	last := len(b) - 1
	for last >= 0 && b[last] == 0 {
		last--
	}
	h := uint64(fnvOffset)
	for i := 0; i <= last; i++ {
		w := b[i]
		for byteIdx := 0; byteIdx < 8; byteIdx++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
	}
	return h
}
