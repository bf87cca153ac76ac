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

// myers runs the forward O(ND) greedy algorithm, storing the V arrays per D
// so the edit script can be reconstructed by backtracking.
func myers(a, b []string) []elemOp {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	// V is indexed by diagonal k in [-max, max]; offset by max.
	v := make([]int, 2*max+2)
	var trace [][]int

	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[max+k-1] < v[max+k+1]) {
				x = v[max+k+1] // move down (insert from b)
			} else {
				x = v[max+k-1] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[max+k] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}

	// Backtrack from (n, m) through the stored V arrays.
	var ops []elemOp
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vd := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vd[max+k-1] < vd[max+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vd[max+prevK]
		prevY := prevX - prevK
		// Snake: equal elements walked after the edit.
		for x > prevX && y > prevY {
			x--
			y--
			ops = append(ops, elemOp{op: Equal, ai: x, bi: y})
		}
		if x == prevX { // came from k+1: insertion of b[prevY]
			y--
			ops = append(ops, elemOp{op: Insert, bi: y})
		} else { // deletion of a[prevX]
			x--
			ops = append(ops, elemOp{op: Delete, ai: x})
		}
	}
	// Leading snake at d == 0.
	for x > 0 && y > 0 {
		x--
		y--
		ops = append(ops, elemOp{op: Equal, ai: x, bi: y})
	}
	// Reverse into forward order.
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
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
