// Package jaccard computes the pairwise Jaccard Similarity Matrices (JSM)
// of §II-E/F: JSM[i][j] is the Jaccard similarity of the attribute sets of
// traces i and j, and JSM_D = |JSM_faulty − JSM_normal| is the "diff of the
// diffs" that isolates which similarity relations a fault changed.
//
// When the attribute sets share one fca.Interner (the pipeline's shape
// since the bitset rewrite — see DESIGN.md §10), every cell is two
// popcounts over word-packed bitsets; sets over foreign interners still
// work via fca.Set's string-remap slow path.
package jaccard

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"difftrace/internal/fca"
	"difftrace/internal/obs"
	"difftrace/internal/pool"
)

// JSM is a symmetric matrix of pairwise similarities (or, for a difference
// matrix, absolute similarity changes), indexed by object name.
type JSM struct {
	Names []string
	M     [][]float64
}

// New builds a JSM from per-object attribute sets. Objects are ordered by
// name using a numeric-aware comparison so "T2" sorts before "T10" and
// "6.4" after "6.3".
func New(attrs map[string]fca.AttrSet) *JSM {
	return NewParallelObserved(attrs, 1, nil)
}

// NewParallelObserved is New with the O(n²) pairwise computation spread
// over up to workers goroutines in row blocks. Row i computes cells
// (i, j>i) and mirrors them; every cell is written exactly once and each
// value is the same arithmetic as the sequential path, so the result is
// bit-identical for any worker count. Observability folds into r: the
// row-block loop records its utilization under the "jaccard.rows" pool
// site, and the "jaccard.cells" counter accumulates the pairwise cells
// computed (n·(n−1)/2 per matrix). A nil Run is the zero-cost fast path.
func NewParallelObserved(attrs map[string]fca.AttrSet, workers int, r *obs.Run) *JSM {
	names := make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Sort(NaturalOrder(names))
	m := make([][]float64, len(names))
	for i := range m {
		m[i] = make([]float64, len(names))
		m[i][i] = 1
	}
	r.Counter("jaccard.cells").Add(int64(len(names) * (len(names) - 1) / 2))
	// A nil ctx is never cancelled, so Do runs every row and returns nil.
	_ = pool.Do(nil, r, "jaccard.rows", workers, len(names), func(i int) {
		row := attrs[names[i]]
		for j := i + 1; j < len(names); j++ {
			v := row.Jaccard(attrs[names[j]])
			m[i][j], m[j][i] = v, v
		}
	})
	return &JSM{Names: names, M: m}
}

// FromLattice derives the JSM from a concept lattice's context: object
// intents are read back from the lattice, as the paper's pipeline does
// (the two routes agree; see the JSMSource ablation benchmark).
func FromLattice(l *fca.Lattice) *JSM {
	ctx := l.Context()
	attrs := make(map[string]fca.AttrSet)
	for _, g := range ctx.Objects() {
		attrs[g] = ctx.Intent(g)
	}
	return New(attrs)
}

// LessNatural compares names component-wise, numerically where possible
// ("6.4" < "10.2", "T2" < "T10"). It is a strict total order: ties on the
// numeric key fall back to the raw strings.
func LessNatural(a, b string) bool {
	return lessKeyed(naturalKey(a), naturalKey(b), a, b)
}

// NaturalOrder sorts names into LessNatural order under sort.Sort,
// building each name's key once rather than twice per comparison.
func NaturalOrder(names []string) sort.Interface {
	o := naturalOrder{names: names, keys: make([][]string, len(names))}
	for i, n := range names {
		o.keys[i] = naturalKey(n)
	}
	return o
}

type naturalOrder struct {
	names []string
	keys  [][]string
}

func (o naturalOrder) Len() int { return len(o.names) }

func (o naturalOrder) Less(i, j int) bool {
	return lessKeyed(o.keys[i], o.keys[j], o.names[i], o.names[j])
}

func (o naturalOrder) Swap(i, j int) {
	o.names[i], o.names[j] = o.names[j], o.names[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

// lessKeyed is LessNatural over precomputed keys.
func lessKeyed(pa, pb []string, a, b string) bool {
	for i := 0; i < len(pa) && i < len(pb); i++ {
		if pa[i] != pb[i] {
			return pa[i] < pb[i]
		}
	}
	if len(pa) != len(pb) {
		return len(pa) < len(pb)
	}
	return a < b
}

// naturalKey splits a name into alternating text/number chunks, padding
// numbers to 20 digits with leading zeros for lexicographic comparison
// (longer numbers stay as they are).
func naturalKey(s string) []string {
	var parts []string
	i := 0
	for i < len(s) {
		j := i
		if s[i] >= '0' && s[i] <= '9' {
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			num := s[i:j]
			if pad := 20 - len(num); pad > 0 {
				num = zeros[:pad] + num
			}
			parts = append(parts, num)
		} else {
			for j < len(s) && (s[j] < '0' || s[j] > '9') {
				j++
			}
			parts = append(parts, s[i:j])
		}
		i = j
	}
	return parts
}

const zeros = "00000000000000000000"

// Index returns the row index of name, or -1.
func (j *JSM) Index(name string) int {
	for i, n := range j.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// At returns the similarity of two named objects.
func (j *JSM) At(a, b string) (float64, error) {
	ia, ib := j.Index(a), j.Index(b)
	if ia < 0 || ib < 0 {
		return 0, fmt.Errorf("jaccard: unknown object %q/%q", a, b)
	}
	return j.M[ia][ib], nil
}

// Size returns the number of objects.
func (j *JSM) Size() int { return len(j.Names) }

// Diff computes JSM_D = |a − b| entrywise. Both matrices must be over the
// same object names in the same order (the normal and faulty executions
// have the same process/thread structure).
func Diff(a, b *JSM) (*JSM, error) {
	if len(a.Names) != len(b.Names) {
		return nil, fmt.Errorf("jaccard: size mismatch %d vs %d", len(a.Names), len(b.Names))
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			return nil, fmt.Errorf("jaccard: object mismatch %q vs %q", a.Names[i], b.Names[i])
		}
	}
	d := &JSM{Names: append([]string(nil), a.Names...)}
	d.M = make([][]float64, len(a.M))
	for i := range a.M {
		d.M[i] = make([]float64, len(a.M))
		for k := range a.M[i] {
			d.M[i][k] = math.Abs(a.M[i][k] - b.M[i][k])
		}
	}
	return d, nil
}

// RowDelta sums row i — on a JSM_D this measures how much object i's
// similarity relations changed, the per-trace suspicion score of §II-F.
func (j *JSM) RowDelta(i int) float64 {
	s := 0.0
	for _, v := range j.M[i] {
		s += v
	}
	return s
}

// Suspect pairs an object with its suspicion score.
type Suspect struct {
	Name  string
	Score float64
}

// Suspects ranks all objects by descending row delta (computed on a JSM_D),
// breaking ties by name order.
func (j *JSM) Suspects() []Suspect {
	out := make([]Suspect, len(j.Names))
	for i, n := range j.Names {
		out[i] = Suspect{Name: n, Score: j.RowDelta(i)}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// Distance converts the similarity matrix into the dissimilarity matrix
// 1 − JSM that hierarchical clustering consumes.
func (j *JSM) Distance() [][]float64 {
	d := make([][]float64, len(j.M))
	for i := range j.M {
		d[i] = make([]float64, len(j.M))
		for k := range j.M[i] {
			if i != k {
				d[i][k] = 1 - j.M[i][k]
			}
		}
	}
	return d
}

// Heatmap renders the matrix as ASCII (Figure 4): one shade character per
// cell from " " (0) to "█"-like density using a ramp.
func (j *JSM) Heatmap() string {
	ramp := []byte(" .:-=+*#%@")
	var b strings.Builder
	w := 0
	for _, n := range j.Names {
		if len(n) > w {
			w = len(n)
		}
	}
	for i, n := range j.Names {
		fmt.Fprintf(&b, "%-*s |", w, n)
		for k := range j.M[i] {
			v := j.M[i][k]
			idx := int(v * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			b.WriteByte(ramp[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// String renders the matrix numerically with row/column labels.
func (j *JSM) String() string {
	var b strings.Builder
	w := 0
	for _, n := range j.Names {
		if len(n) > w {
			w = len(n)
		}
	}
	fmt.Fprintf(&b, "%-*s", w, "")
	for _, n := range j.Names {
		fmt.Fprintf(&b, " %5s", n)
	}
	b.WriteByte('\n')
	for i, n := range j.Names {
		fmt.Fprintf(&b, "%-*s", w, n)
		for k := range j.M[i] {
			fmt.Fprintf(&b, " %5.2f", j.M[i][k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
