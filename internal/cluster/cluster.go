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
// The matrix must be symmetric with a zero diagonal; it is not modified.
func Build(d [][]float64, method Method) (*Linkage, error) {
	if !method.Valid() {
		return nil, fmt.Errorf("cluster: unknown linkage %s (want one of %s)",
			method, strings.Join(methodNames, "|"))
	}
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("cluster: row %d has %d entries, want %d", i, len(d[i]), n)
		}
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
	nextID := n
	for step := 0; step < n-1; step++ {
		// Find the closest live pair in row-major order: a later pair
		// replaces the running best only when closer by more than 1e-15.
		bi, bj := -1, -1
		best := math.Inf(1)
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

		// Lance–Williams update: slot bi becomes the merged cluster.
		dij := cur[bi*n+bj]
		for _, k := range live {
			if k == bi || k == bj {
				continue
			}
			ai, aj, beta, gamma := method.coeffs(ni, nj, size[k])
			dki, dkj := cur[k*n+bi], cur[k*n+bj]
			nd := ai*dki + aj*dkj + beta*dij + gamma*math.Abs(dki-dkj)
			cur[k*n+bi], cur[bi*n+k] = nd, nd
		}
		active[bi] = nextID
		nextID++
		live = slices.DeleteFunc(live, func(k int) bool { return k == bj })
		size[bi] = ni + nj
	}
	return lk, nil
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
