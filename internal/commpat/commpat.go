// Package commpat characterizes an execution's point-to-point communication
// pattern, after Roth, Meredith & Vetter's automated pattern search (HPDC
// 2015 — the paper's reference [41], cited in §VI as a related way of
// diffing communication behaviour against common patterns).
//
// The communication matrix (who sends to whom, how often) is mined from a
// logical-clock log (internal/otf) recorded by the MPI runtime; it is
// compared against a library of canonical patterns by cosine similarity,
// and an execution is classified as the best-matching pattern. Diffing two
// matrices (normal vs faulty run) localizes communication-level changes by
// sender/receiver pair — a communication-granularity complement to
// DiffTrace's per-thread call-trace diffing.
package commpat

import (
	"fmt"
	"math"
	"sort"

	"difftrace/internal/otf"
)

// Matrix is an n×n send-count matrix: M[src][dst] = messages sent.
type Matrix struct {
	N int
	M [][]float64
}

// NewMatrix returns a zeroed n×n matrix.
func NewMatrix(n int) *Matrix {
	m := &Matrix{N: n, M: make([][]float64, n)}
	for i := range m.M {
		m.M[i] = make([]float64, n)
	}
	return m
}

// FromLog mines the send matrix from a logical-clock log: every blocking
// or non-blocking send event with a valid peer contributes one message.
func FromLog(l *otf.Log) *Matrix {
	m := NewMatrix(l.Ranks())
	for _, e := range l.Events() {
		if e.Name != "MPI_Send" && e.Name != "MPI_Isend" {
			continue
		}
		if e.Peer < 0 || e.Peer >= m.N || e.Rank < 0 || e.Rank >= m.N {
			continue
		}
		m.M[e.Rank][e.Peer]++
	}
	return m
}

// norm returns the Frobenius norm.
func (m *Matrix) norm() float64 {
	s := 0.0
	for i := range m.M {
		for j := range m.M[i] {
			s += m.M[i][j] * m.M[i][j]
		}
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two matrices in [0, 1] (both
// matrices are non-negative). Zero matrices are fully similar to each
// other and dissimilar to anything non-zero.
func Cosine(a, b *Matrix) (float64, error) {
	if a.N != b.N {
		return 0, fmt.Errorf("commpat: size mismatch %d vs %d", a.N, b.N)
	}
	na, nb := a.norm(), b.norm()
	if na == 0 && nb == 0 {
		return 1, nil
	}
	if na == 0 || nb == 0 {
		return 0, nil
	}
	dot := 0.0
	for i := range a.M {
		for j := range a.M[i] {
			dot += a.M[i][j] * b.M[i][j]
		}
	}
	return dot / (na * nb), nil
}

// Diff returns |a−b| entrywise — the communication-matrix diff Roth et
// al. and the paper's §VI discuss.
func Diff(a, b *Matrix) (*Matrix, error) {
	if a.N != b.N {
		return nil, fmt.Errorf("commpat: size mismatch %d vs %d", a.N, b.N)
	}
	out := NewMatrix(a.N)
	for i := range a.M {
		for j := range a.M[i] {
			out.M[i][j] = math.Abs(a.M[i][j] - b.M[i][j])
		}
	}
	return out, nil
}

// HotPairs returns the k most-changed (src, dst) pairs of a diff matrix.
func (m *Matrix) HotPairs(k int) []Pair {
	var pairs []Pair
	for i := range m.M {
		for j := range m.M[i] {
			if m.M[i][j] > 0 {
				pairs = append(pairs, Pair{Src: i, Dst: j, Weight: m.M[i][j]})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Weight != pairs[b].Weight {
			return pairs[a].Weight > pairs[b].Weight
		}
		if pairs[a].Src != pairs[b].Src {
			return pairs[a].Src < pairs[b].Src
		}
		return pairs[a].Dst < pairs[b].Dst
	})
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	return pairs
}

// Pair is one sender→receiver edge with a weight.
type Pair struct {
	Src, Dst int
	Weight   float64
}

// String renders like "3->4 (x12)".
func (p Pair) String() string { return fmt.Sprintf("%d->%d (x%g)", p.Src, p.Dst, p.Weight) }

// Pattern is one canonical communication pattern.
type Pattern int

const (
	// NearestNeighbor1D: each rank exchanges with rank±1, non-periodic.
	NearestNeighbor1D Pattern = iota
	// Ring: each rank sends to (rank+1) mod n.
	Ring
	// AllToAll: every rank sends to every other rank.
	AllToAll
	// MasterWorker: all traffic flows to/from rank 0.
	MasterWorker
	// Butterfly: rank i exchanges with i XOR 2^k for each stage k.
	Butterfly
	numPatterns
)

var patternNames = []string{
	"nearest-neighbor-1d", "ring", "all-to-all", "master-worker", "butterfly",
}

// String names the pattern like the Roth et al. pattern library does.
func (p Pattern) String() string {
	if int(p) < len(patternNames) {
		return patternNames[p]
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// AllPatterns lists the canonical library.
func AllPatterns() []Pattern {
	out := make([]Pattern, numPatterns)
	for i := range out {
		out[i] = Pattern(i)
	}
	return out
}

// Canonical builds the 0/1 canonical matrix of a pattern at size n.
func Canonical(p Pattern, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			var hit bool
			switch p {
			case NearestNeighbor1D:
				hit = j == i-1 || j == i+1
			case Ring:
				hit = j == (i+1)%n
			case AllToAll:
				hit = true
			case MasterWorker:
				hit = i == 0 || j == 0
			case Butterfly:
				for bit := 1; bit < n; bit <<= 1 {
					if j == i^bit {
						hit = true
					}
				}
			}
			if hit {
				m.M[i][j] = 1
			}
		}
	}
	return m
}

// Match is one pattern-classification candidate.
type Match struct {
	Pattern    Pattern
	Similarity float64
}

// Classify ranks the canonical patterns by cosine similarity to m,
// best first.
func Classify(m *Matrix) []Match {
	out := make([]Match, 0, numPatterns)
	for _, p := range AllPatterns() {
		sim, err := Cosine(m, Canonical(p, m.N))
		if err != nil {
			continue
		}
		out = append(out, Match{Pattern: p, Similarity: sim})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Similarity > out[j].Similarity })
	return out
}
