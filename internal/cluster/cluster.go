// Package cluster implements agglomerative hierarchical clustering over a
// precomputed dissimilarity matrix — this repository's stand-in for the
// SciPy 1.3.0 linkage/fcluster machinery the paper uses (§III-C).
//
// All seven SciPy linkage methods are provided through the Lance–Williams
// update formula: single, complete, average (UPGMA), weighted (WPGMA),
// centroid, median, and ward (the method the paper's ranking tables use:
// "Ward variance minimization"). The output is a SciPy-compatible linkage
// matrix: row t = [clusterA, clusterB, distance, size] with new clusters
// numbered n, n+1, ...
package cluster

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Method is a linkage method.
type Method int

const (
	// Single linkage: nearest neighbor.
	Single Method = iota
	// Complete linkage: farthest neighbor.
	Complete
	// Average linkage (UPGMA).
	Average
	// Weighted linkage (WPGMA).
	Weighted
	// Centroid linkage (UPGMC; Lance–Williams on squared distances).
	Centroid
	// Median linkage (WPGMC; Lance–Williams on squared distances).
	Median
	// Ward variance minimization (Lance–Williams on squared distances).
	Ward
)

var methodNames = []string{"single", "complete", "average", "weighted", "centroid", "median", "ward"}

// String returns the SciPy method name.
func (m Method) String() string {
	if int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// ParseMethod parses a SciPy method name.
func ParseMethod(s string) (Method, error) {
	for i, n := range methodNames {
		if n == s {
			return Method(i), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown linkage method %q", s)
}

// AllMethods returns every linkage method (the §II-F knob-1 sweep).
func AllMethods() []Method {
	out := make([]Method, len(methodNames))
	for i := range out {
		out[i] = Method(i)
	}
	return out
}

// Valid reports whether m names one of the seven linkage methods. Build
// rejects invalid methods with an error, so a Method arriving from user
// input (a flag, a config file) can never panic the pipeline.
func (m Method) Valid() bool {
	return m >= Single && m <= Ward
}

// squaredSpace reports whether the Lance–Williams recurrence for m operates
// on squared distances (SciPy's convention for the geometric methods).
func (m Method) squaredSpace() bool {
	return m == Centroid || m == Median || m == Ward
}

// coeffs returns the Lance–Williams coefficients (αi, αj, β, γ) for merging
// clusters of sizes ni and nj, evaluated against a cluster of size nk.
func (m Method) coeffs(ni, nj, nk float64) (ai, aj, beta, gamma float64) {
	switch m {
	case Single:
		return 0.5, 0.5, 0, -0.5
	case Complete:
		return 0.5, 0.5, 0, 0.5
	case Average:
		return ni / (ni + nj), nj / (ni + nj), 0, 0
	case Weighted:
		return 0.5, 0.5, 0, 0
	case Centroid:
		s := ni + nj
		return ni / s, nj / s, -ni * nj / (s * s), 0
	case Median:
		return 0.5, 0.5, -0.25, 0
	case Ward:
		s := ni + nj + nk
		return (ni + nk) / s, (nj + nk) / s, -nk / s, 0
	default:
		// Unreachable: Build validates the method before clustering.
		return 0.5, 0.5, 0, 0
	}
}

// Linkage is the dendrogram: n-1 merge steps over n observations.
type Linkage struct {
	N     int
	Steps []Step
}

// Step is one agglomeration: clusters A and B (original observations are
// 0..n-1; merged clusters are n, n+1, ... in step order) merge at Distance
// into a cluster of Size leaves.
type Step struct {
	A, B     int
	Distance float64
	Size     int
}

// Build clusters the n×n dissimilarity matrix d with the given method.
// The matrix must be symmetric with a zero diagonal and finite,
// non-negative entries; it is not modified.
//
// Each step merges the pair that a row-major scan of the live slots takes:
// a later pair replaces the running best only when closer by more than
// 1e-15. Build reads that pair from per-row caches (rowMin) whenever they
// prove it is the scan's, and runs the scan only for the steps they cannot.
func Build(d [][]float64, method Method) (*Linkage, error) {
	return build(d, method, nil)
}

// stats counts the work a build does beyond its O(n²) floor.
type stats struct {
	fallbacks int // steps that ran the live-slot scan
	rescanned int // cells read by row rescans
}

// build is Build, counting its work into st when st is non-nil.
func build(d [][]float64, method Method, st *stats) (*Linkage, error) {
	if !method.Valid() {
		return nil, fmt.Errorf("cluster: unknown linkage %s (want one of %s)",
			method, strings.Join(methodNames, "|"))
	}
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("cluster: row %d has %d entries, want %d", i, len(d[i]), n)
		}
		for j, v := range d[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("cluster: non-finite distance %v at (%d,%d)", v, i, j)
			}
		}
	}
	for i := range d {
		if d[i][i] != 0 {
			return nil, fmt.Errorf("cluster: nonzero diagonal at %d", i)
		}
		for j := range d[i] {
			if math.Abs(d[i][j]-d[j][i]) > 1e-9 {
				return nil, fmt.Errorf("cluster: asymmetric at (%d,%d)", i, j)
			}
			if d[i][j] < 0 {
				return nil, fmt.Errorf("cluster: negative distance at (%d,%d)", i, j)
			}
		}
	}
	lk := &Linkage{N: n}
	if n <= 1 {
		return lk, nil
	}

	// Working copy, row-major; geometric methods run in squared space.
	sq := method.squaredSpace()
	cur := make([]float64, n*n)
	for i := range d {
		for j, v := range d[i] {
			if sq {
				v = v * v
			}
			cur[i*n+j] = v
		}
	}
	live := make([]int, n)     // slots still holding a cluster, ascending
	active := make([]int, n)   // active[slot] = cluster id
	size := make([]float64, n) // leaves per slot
	for i := range active {
		live[i] = i
		active[i] = i
		size[i] = 1
	}
	rows := make([]rowMin, n)
	for a, i := range live {
		rows[i].rescan(cur[i*n:i*n+n], live[a+1:])
	}
	var dirty []int // positions in live of rows to rescan after a merge
	nextID := n
	for step := 0; step < n-1; step++ {
		bi, bj, best, ok := pick(rows, cur, n, live)
		if !ok {
			bi, bj, best = scan(cur, n, live)
			if st != nil {
				st.fallbacks++
			}
		}
		if bi < 0 {
			// Only overflow in the working space leaves no finite
			// distance: the inputs are finite.
			return nil, fmt.Errorf("cluster: no finite %s distance left between %d clusters at step %d",
				method, len(live), step)
		}
		ni, nj := size[bi], size[bj]
		dist := best
		if sq {
			dist = math.Sqrt(math.Max(0, dist))
		}
		a, b := active[bi], active[bj]
		if a > b {
			a, b = b, a
		}
		lk.Steps = append(lk.Steps, Step{A: a, B: b, Distance: dist, Size: int(ni + nj)})

		// Lance–Williams update: slot bi becomes the merged cluster and
		// slot bj leaves. Row k < bi sees its entry at bi change and its
		// entry at bj leave, row bi < k < bj only the latter, and row bi
		// is rebuilt from the new values as they are computed.
		dij := cur[bi*n+bj]
		dirty = dirty[:0]
		rows[bi] = emptyRow()
		for p, k := range live {
			if k == bi || k == bj {
				continue
			}
			ai, aj, beta, gamma := method.coeffs(ni, nj, size[k])
			dki, dkj := cur[k*n+bi], cur[k*n+bj]
			nd := ai*dki + aj*dkj + beta*dij + gamma*math.Abs(dki-dkj)
			cur[k*n+bi], cur[bi*n+k] = nd, nd
			switch {
			case k < bi:
				if !rows[k].set(bi, dki, nd) || !rows[k].set(bj, dkj, inf) {
					dirty = append(dirty, p)
				}
			case k < bj:
				rows[bi].add(k, nd)
				if !rows[k].set(bj, dkj, inf) {
					dirty = append(dirty, p)
				}
			default:
				rows[bi].add(k, nd)
			}
		}
		active[bi] = nextID
		nextID++
		live = slices.DeleteFunc(live, func(k int) bool { return k == bj })
		size[bi] = ni + nj
		// Every dirty row lies before bj, so its position in live held.
		for _, p := range dirty {
			k := live[p]
			cells := rows[k].rescan(cur[k*n:k*n+n], live[p+1:])
			if st != nil {
				st.rescanned += cells
			}
		}
	}
	return lk, nil
}

var inf = math.Inf(1)

// scan is the closest-pair scan over the live slots in row-major order: a
// later pair replaces the running best only when closer by more than
// 1e-15. It returns bi = -1 when no entry is below +Inf.
func scan(cur []float64, n int, live []int) (bi, bj int, best float64) {
	bi, bj = -1, -1
	best = inf
	thr := best - 1e-15
	for a, i := range live {
		row := cur[i*n : i*n+n]
		for _, j := range live[a+1:] {
			if v := row[j]; v < thr {
				best, thr = v, v-1e-15
				bi, bj = i, j
			}
		}
	}
	return bi, bj, best
}

// rowMin caches what the scan sees of one live row i, its entries
// cur[i*n+j] over the live slots j > i: their minimum and how many entries
// hold it, the first j that does, and the next distinct value above the
// minimum and how many entries hold that. The scan never takes +Inf or
// NaN, so neither enters a cache: a row with no finite entry has min +Inf,
// nmin 0 and arg −1, and next is +Inf, nnext 0, when no finite value lies
// above min.
type rowMin struct {
	min, next   float64
	nmin, nnext int
	arg         int
}

func emptyRow() rowMin { return rowMin{min: inf, next: inf, arg: -1} }

// add folds entry v at column j into the cache, where j lies after every
// column that holds min.
func (r *rowMin) add(j int, v float64) {
	switch {
	case !(v < inf):
	case v < r.min:
		r.next, r.nnext = r.min, r.nmin
		r.min, r.nmin, r.arg = v, 1, j
	case v == r.min:
		r.nmin++
	case v < r.next:
		r.next, r.nnext = v, 1
	case v == r.next:
		r.nnext++
	}
}

// rescan rebuilds the cache from row's entries at cols, the live slots
// after the row's own, and returns the number of cells it read.
func (r *rowMin) rescan(row []float64, cols []int) int {
	*r = emptyRow()
	for _, j := range cols {
		r.add(j, row[j])
	}
	return len(cols)
}

// set tells the cache that the entry at column c changed from old to v
// (+Inf for a column that left). It reports false when the cache no longer
// knows the row's first minimum or its next value, and the row must be
// rescanned: when the entry at arg rose, or when the last entry holding
// next went.
func (r *rowMin) set(c int, old, v float64) bool {
	if c == r.arg {
		switch {
		case v == r.min:
		case v < r.min:
			if r.nmin > 1 {
				r.next, r.nnext = r.min, r.nmin-1
			}
			r.min, r.nmin = v, 1
		default:
			return false
		}
		return true
	}
	// min is still held at arg.
	switch {
	case !(old < inf):
	case old == r.min:
		r.nmin--
	case old == r.next:
		r.nnext--
	}
	switch {
	case !(v < inf):
	case v < r.min:
		r.next, r.nnext = r.min, r.nmin
		r.min, r.nmin, r.arg = v, 1, c
	case v == r.min:
		r.nmin++
		r.arg = min(r.arg, c)
	case v < r.next:
		r.next, r.nnext = v, 1
	case v == r.next:
		r.nnext++
	}
	return r.nnext > 0 || r.next == inf
}

// pick returns the pair the scan would take, read from the caches of the
// live rows: the first row-major pair at the smallest live value m. It
// reports ok only when m < m2−1e-15 in float64, m2 being the smallest live
// value above m. Then every value the scan visits before that pair is at
// least m2, so its threshold there is at least fl(m2−1e-15) > m and it
// takes the pair; after it the threshold is fl(m−1e-15) ≤ m, which no
// remaining value is below. Otherwise the caller runs the scan.
func pick(rows []rowMin, cur []float64, n int, live []int) (bi, bj int, m float64, ok bool) {
	bi, m = -1, inf
	m2 := inf
	for _, i := range live {
		switch r := &rows[i]; {
		case r.min < m:
			m2 = min(m, r.next)
			bi, m = i, r.min
		case r.min == m:
			m2 = min(m2, r.next)
		default:
			m2 = min(m2, r.min)
		}
	}
	if bi < 0 || !(m < m2-1e-15) {
		return -1, -1, 0, false
	}
	// The cell, not m: a cache may hold +0 for a −0 entry.
	bj = rows[bi].arg
	return bi, bj, cur[bi*n+bj], true
}

// CutK flattens the dendrogram into exactly k clusters (1 ≤ k ≤ n) by
// undoing the last k-1 merges. Labels are 0-based, renumbered by first
// appearance, matching observation order.
func (l *Linkage) CutK(k int) ([]int, error) {
	if k < 1 || k > l.N {
		return nil, fmt.Errorf("cluster: k=%d out of range [1,%d]", k, l.N)
	}
	return l.cut(l.N - k), nil
}

// cut applies the first `merges` steps and returns canonical labels.
func (l *Linkage) cut(merges int) []int {
	parent := make([]int, l.N+merges)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for s := 0; s < merges; s++ {
		st := l.Steps[s]
		merged := l.N + s
		parent[find(st.A)] = merged
		parent[find(st.B)] = merged
	}
	labels := make([]int, l.N)
	canon := map[int]int{}
	for i := 0; i < l.N; i++ {
		r := find(i)
		if _, ok := canon[r]; !ok {
			canon[r] = len(canon)
		}
		labels[i] = canon[r]
	}
	return labels
}

// Render prints the merge sequence (a textual dendrogram), with optional
// leaf names.
func (l *Linkage) Render(names []string) string {
	label := func(id int) string {
		if id < l.N {
			if names != nil && id < len(names) {
				return names[id]
			}
			return fmt.Sprintf("obs%d", id)
		}
		return fmt.Sprintf("c%d", id)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "linkage over %d observations\n", l.N)
	for s, st := range l.Steps {
		fmt.Fprintf(&b, "  c%d = merge(%s, %s) at %.4f (size %d)\n",
			l.N+s, label(st.A), label(st.B), st.Distance, st.Size)
	}
	return b.String()
}
