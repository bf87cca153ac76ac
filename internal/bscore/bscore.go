// Package bscore implements Fowlkes & Mallows' B_k method for comparing two
// hierarchical clusterings ("A Method for Comparing Two Hierarchical
// Clusterings", JASA 1983 — the paper's reference [17]).
//
// DiffTrace sorts its ranking tables by the B-score of the normal-run and
// faulty-run dendrograms (§III-C): a low score means the fault reorganized
// the similarity structure a lot, so the parameter combination that
// produced it is ranked as more informative.
package bscore

import (
	"fmt"
	"math"

	"difftrace/internal/cluster"
)

// BScore compares two dendrograms over the same n observations by averaging
// B_k over every non-degenerate cut level k = 2..n-1 (Fowlkes & Mallows'
// plot, collapsed to its mean as DiffTrace's single sorting key). For n ≤ 3
// the only informative level k=2 is used.
func BScore(l1, l2 *cluster.Linkage) (float64, error) {
	if l1.N != l2.N {
		return 0, fmt.Errorf("bscore: dendrograms over %d vs %d observations", l1.N, l2.N)
	}
	if l1.N <= 2 {
		// No merge or only the root: at k=2 (n == 2) both sides are all
		// singletons, which agree by convention.
		return 1, nil
	}
	bs := curve(l1, l2)
	sum := 0.0
	for _, b := range bs {
		sum += b
	}
	return sum / float64(len(bs)), nil
}

// Curve returns the full (k, B_k) series for plotting, k = 2..n-1.
func Curve(l1, l2 *cluster.Linkage) ([]int, []float64, error) {
	if l1.N != l2.N {
		return nil, nil, fmt.Errorf("bscore: dendrograms over %d vs %d observations", l1.N, l2.N)
	}
	if l1.N <= 2 {
		return nil, nil, nil
	}
	bs := curve(l1, l2)
	ks := make([]int, len(bs))
	for i := range ks {
		ks[i] = i + 2
	}
	return ks, bs, nil
}

// curve returns B_2..B_{n-1} (index k-2) for two dendrograms over the same
// n > 2 observations. It walks both merge sequences once, from k = n-1 down
// to 2, keeping the contingency table m_ij = |A_i ∩ B_j| between the two
// flat clusterings and its three integer sums current. B_k is then
//
//	(Σm_ij² − n) / √((Σ|A_i|² − n)(Σ|B_j|² − n))
//
// in float64 arithmetic on the same exact integers that cutting both trees
// at k and counting gives, so every B_k is bit-identical to cut-and-count.
func curve(l1, l2 *cluster.Linkage) []float64 {
	n := l1.N
	c := newContingency(n)
	reps := [2][]int32{leafIDs(n), leafIDs(n)}
	bs := make([]float64, n-2)
	for k := n - 1; k >= 2; k-- {
		for side, l := range [2]*cluster.Linkage{l1, l2} {
			st := l.Steps[n-1-k]
			reps[side] = append(reps[side], c.merge(side, reps[side][st.A], reps[side][st.B]))
		}
		bs[k-2] = c.bk()
	}
	return bs
}

// leafIDs returns the identity map over n leaves: dendrogram cluster id →
// its representative leaf, extended by one entry per merge.
func leafIDs(n int) []int32 {
	ids := make([]int32, n, 2*n-1)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// contingency is the sparse table m_ij = |A_i ∩ B_j| between two flat
// clusterings A (side 0) and B (side 1) of n observations, each cluster
// named by a representative leaf. lines[0][i] maps j to m_ij (A's rows)
// and lines[1][j] maps i to m_ij (B's columns); both views hold the same
// nonzero cells.
type contingency struct {
	n     int64
	lines [2][]map[int32]int32
	size  [2][]int64
	sq    [2]int64 // Σ|A_i|², Σ|B_j|²
	t     int64    // Σ m_ij²
}

// newContingency starts from all singletons on both sides: m = I.
func newContingency(n int) *contingency {
	c := &contingency{n: int64(n), sq: [2]int64{int64(n), int64(n)}, t: int64(n)}
	for side := range c.lines {
		c.lines[side] = make([]map[int32]int32, n)
		c.size[side] = make([]int64, n)
		for i := range c.lines[side] {
			c.lines[side][i] = map[int32]int32{int32(i): 1}
			c.size[side][i] = 1
		}
	}
	return c
}

// merge merges clusters x and y of one side and returns the survivor's
// representative. That side's Σ|·|² gains 2·|x|·|y| and Σm² gains
// 2·Σ_j m_xj·m_yj. The line with fewer cells is folded into the other, so
// each cell moves O(log n) times over the whole walk.
func (c *contingency) merge(side int, x, y int32) int32 {
	own, cross := c.lines[side], c.lines[1-side]
	if len(own[x]) < len(own[y]) {
		x, y = y, x
	}
	size := c.size[side]
	c.sq[side] += 2 * size[x] * size[y]
	size[x] += size[y]
	lx := own[x]
	for j, v := range own[y] {
		w := lx[j]
		c.t += 2 * int64(v) * int64(w)
		lx[j] = w + v
		delete(cross[j], y)
		cross[j][x] = w + v
	}
	own[y] = nil
	return x
}

// bk is Fowlkes & Mallows' B_k for the current pair of partitions. When a
// side is all singletons B_k is undefined; by convention two all-singleton
// partitions agree perfectly, otherwise 0.
func (c *contingency) bk() float64 {
	tk, pk, qk := float64(c.t-c.n), float64(c.sq[0]-c.n), float64(c.sq[1]-c.n)
	if pk == 0 || qk == 0 {
		if pk == 0 && qk == 0 {
			return 1
		}
		return 0
	}
	return tk / math.Sqrt(pk*qk)
}

// RenderCurve draws the (k, B_k) series as an ASCII sparkline — the plot
// Fowlkes & Mallows' paper presents, collapsed to one line per comparison:
//
//	B_k  k=2..7  [██▆▆▄▁]  mean 0.62
func RenderCurve(l1, l2 *cluster.Linkage) (string, error) {
	ks, bs, err := Curve(l1, l2)
	if err != nil {
		return "", err
	}
	if len(ks) == 0 {
		return "B_k: (no informative cut levels)", nil
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	var sb, mean = make([]rune, len(bs)), 0.0
	for i, b := range bs {
		idx := int(b * float64(len(ramp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		sb[i] = ramp[idx]
		mean += b
	}
	mean /= float64(len(bs))
	return fmt.Sprintf("B_k  k=%d..%d  [%s]  mean %.3f", ks[0], ks[len(ks)-1], string(sb), mean), nil
}
