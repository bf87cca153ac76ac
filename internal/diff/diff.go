// Package diff implements Myers' O(ND) difference algorithm
// (E. Myers, "An O(ND) Difference Algorithm and Its Variations",
// Algorithmica 1986 — the paper's reference [18], the algorithm behind GNU
// diff and git). DiffTrace uses it to compare the NLR token sequences of a
// normal and a faulty trace (§II-F.1, diffNLR).
package diff

import "fmt"

// Op is the kind of an edit-script entry.
type Op int

const (
	// Equal tokens appear in both sequences (diffNLR's green "main stem").
	Equal Op = iota
	// Delete tokens appear only in A (the normal trace: blue blocks).
	Delete
	// Insert tokens appear only in B (the faulty trace: red blocks).
	Insert
)

// String returns "=", "-" or "+".
func (o Op) String() string {
	switch o {
	case Equal:
		return "="
	case Delete:
		return "-"
	case Insert:
		return "+"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Edit is a run of consecutive tokens sharing one Op.
type Edit struct {
	Op     Op
	Tokens []string
}

// Diff computes the minimal edit script converting a into b, as runs of
// Equal/Delete/Insert tokens. The result is canonical: adjacent runs never
// share an Op, and a Delete run is never directly followed by another
// Delete (runs are maximal).
func Diff(a, b []string) []Edit {
	ops := myers(a, b)
	return coalesce(ops, a, b)
}

// elementary op produced by backtracking.
type elemOp struct {
	op Op
	ai int // index into a (Equal, Delete)
	bi int // index into b (Equal, Insert)
}

// myers computes the elementary edit script of Myers' greedy algorithm.
// The common prefix is exactly the d = 0 snake: diffing what follows it
// shifts every later V entry by its length, so every comparison, and so
// the script, stays the same. After the prefix an empty side is all
// deletions or all insertions.
func myers(a, b []string) []elemOp {
	p := 0
	for p < len(a) && p < len(b) && a[p] == b[p] {
		p++
	}
	n, m := len(a), len(b)
	dist := n + m - 2*p
	var trace []snapshot
	if p < n && p < m {
		trace = forward(a[p:], b[p:])
		dist = len(trace)
	}
	// A script of distance dist holds (n+m-dist)/2 equal tokens; fill it
	// from the end while backtracking from (n, m).
	ops := make([]elemOp, (n+m+dist)/2)
	i := len(ops)
	x, y := n, m
	for d := len(trace); d > 0; d-- {
		vd := trace[d-1]
		k := x - y
		prevK := k - 1
		if k == -d || (k != d && vd.at(k-1) < vd.at(k+1)) {
			prevK = k + 1
		}
		prevX := p + vd.at(prevK)
		prevY := prevX - prevK
		// Snake: equal elements walked after the edit.
		for x > prevX && y > prevY {
			x--
			y--
			i--
			ops[i] = elemOp{op: Equal, ai: x, bi: y}
		}
		i--
		if x == prevX { // came from k+1: insertion of b[prevY]
			y--
			ops[i] = elemOp{op: Insert, bi: y}
		} else { // deletion of a[prevX]
			x--
			ops[i] = elemOp{op: Delete, ai: x}
		}
	}
	// What an empty side leaves after the prefix, then the prefix.
	for x > p {
		x--
		i--
		ops[i] = elemOp{op: Delete, ai: x}
	}
	for y > p {
		y--
		i--
		ops[i] = elemOp{op: Insert, bi: y}
	}
	for x > 0 {
		x--
		i--
		ops[i] = elemOp{op: Equal, ai: x, bi: x}
	}
	return ops
}

// snapshot holds V[lo], V[lo+2], ..., the entries of V that backtracking
// reads at one step.
type snapshot struct {
	lo int
	v  []int32
}

func (s snapshot) at(k int) int { return int(s.v[(k-s.lo)/2]) }

// forward runs the greedy forward pass over a and b, both non-empty with
// differing first tokens, until it reaches (n, m). Entry d-1 of the result
// keeps what backtracking reads at step d: step d-1's endpoints on the
// diagonals of d-1's parity, and only inside the band [-m-1, n+1], since
// backtracking visits grid points only, on diagonals -m..n, and reads their
// neighbours.
func forward(a, b []string) []snapshot {
	n, m := len(a), len(b)
	off := n + m
	// V is indexed by diagonal k in [-off, off]; offset by off.
	v := make([]int, 2*off+2)
	var trace []snapshot
	for d := 0; d <= off; d++ {
		if d > 0 {
			lo, hi := max(-(d-1), -m-1), min(d-1, n+1)
			lo += (lo - (d - 1)) & 1
			hi -= (hi - (d - 1)) & 1
			s := snapshot{lo: lo, v: make([]int32, (hi-lo)/2+1)}
			for j := range s.v {
				s.v[j] = int32(v[off+lo+2*j])
			}
			trace = append(trace, s)
		}
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[off+k-1] < v[off+k+1]) {
				x = v[off+k+1] // move down (insert from b)
			} else {
				x = v[off+k-1] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[off+k] = x
			if x >= n && y >= m {
				return trace
			}
		}
	}
	return trace
}

// coalesce groups elementary ops into maximal runs. Within a changed hunk,
// deletions are emitted before insertions (GNU diff convention).
func coalesce(ops []elemOp, a, b []string) []Edit {
	var out []Edit
	i := 0
	for i < len(ops) {
		op := ops[i].op
		if op == Equal {
			j := i
			var toks []string
			for j < len(ops) && ops[j].op == Equal {
				toks = append(toks, a[ops[j].ai])
				j++
			}
			out = append(out, Edit{Op: Equal, Tokens: toks})
			i = j
			continue
		}
		// A changed hunk: collect all contiguous non-equal ops, split into
		// the delete side then the insert side.
		j := i
		var dels, ins []string
		for j < len(ops) && ops[j].op != Equal {
			if ops[j].op == Delete {
				dels = append(dels, a[ops[j].ai])
			} else {
				ins = append(ins, b[ops[j].bi])
			}
			j++
		}
		if len(dels) > 0 {
			out = append(out, Edit{Op: Delete, Tokens: dels})
		}
		if len(ins) > 0 {
			out = append(out, Edit{Op: Insert, Tokens: ins})
		}
		i = j
	}
	return out
}

// Distance returns the edit distance implied by a script (total number of
// deleted plus inserted tokens).
func Distance(edits []Edit) int {
	d := 0
	for _, e := range edits {
		if e.Op != Equal {
			d += len(e.Tokens)
		}
	}
	return d
}
