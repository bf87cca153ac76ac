// Package progress adds the PRODOMETER-style progress measure the paper
// names as future work (§VI: "Prodometer's methods are ripe for symbiotic
// incorporation into DiffTrace"; §II-A already calls NLR a "per-thread
// measure of progress").
//
// Progress is computed *relative to the normal execution*: the faulty
// trace's NLR is aligned against the normal trace's NLR, and each matched
// element contributes its expanded call weight — with partial credit for a
// loop that matched its body but completed fewer iterations (the unfinished
// loop of a stalled rank). The result is the fraction of the normal run's
// calls the faulty run got through, so the *least progressed* task — the
// rank that stalled first, usually the root cause of a deadlock cascade —
// ranks at the bottom even when every trace ends in the same blocked call
// and stack-granularity tools (STAT) cannot tell the victims apart.
package progress

import (
	"fmt"
	"sort"
	"strings"

	"difftrace/internal/diff"
	"difftrace/internal/nlr"
	"difftrace/internal/trace"
)

// alignToken renders an element for alignment purposes: loop counts are
// dropped so "L1^16" and "L1^7" align as the same loop (and then earn
// partial credit), while distinct bodies stay distinct.
func alignToken(e nlr.Element) string {
	if e.Loop == nil {
		return e.Sym
	}
	return fmt.Sprintf("L%d", e.Loop.ID)
}

// Score computes the progress of a faulty NLR sequence relative to its
// normal counterpart, in [0, 1]. A perfectly matching trace scores 1; an
// empty faulty trace scores 0; a trace whose final loop ran 7 of 16
// iterations earns 7/16 of that loop's weight.
func Score(normal, faulty []nlr.Element) float64 {
	total := nlr.ExpandedLen(normal)
	if total == 0 {
		return 1
	}
	na := make([]string, len(normal))
	for i, e := range normal {
		na[i] = alignToken(e)
	}
	fa := make([]string, len(faulty))
	for i, e := range faulty {
		fa[i] = alignToken(e)
	}
	edits := diff.Diff(na, fa)

	matched := 0.0
	ni, fi := 0, 0
	for _, ed := range edits {
		switch ed.Op {
		case diff.Equal:
			for range ed.Tokens {
				n, f := normal[ni], faulty[fi]
				switch {
				case n.Loop == nil:
					matched++
				case f.Loop != nil:
					// Same loop body; credit min(iterations) out of the
					// normal iteration count.
					credit := f.Loop.Count
					if n.Loop.Count < credit {
						credit = n.Loop.Count
					}
					matched += float64(int64(credit) * nlr.ExpandedLen(n.Loop.Body))
				}
				ni++
				fi++
			}
		case diff.Delete:
			ni += len(ed.Tokens)
		case diff.Insert:
			fi += len(ed.Tokens)
		}
	}
	p := matched / float64(total)
	if p > 1 {
		p = 1
	}
	return p
}

// TaskProgress is one thread's relative progress.
type TaskProgress struct {
	ID    trace.ThreadID
	Score float64
}

// Analysis ranks every thread by progress, least progressed first.
type Analysis struct {
	Tasks []TaskProgress
}

// Analyze summarizes both executions (filtered trace sets, shared registry)
// with a shared loop table and scores every thread of the faulty run
// against its normal counterpart.
func Analyze(normal, faulty *trace.TraceSet, k int) *Analysis {
	table := nlr.NewTable()
	nSums := nlr.SummarizeSet(normal, k, table)
	fSums := nlr.SummarizeSet(faulty, k, table)

	ids := map[trace.ThreadID]bool{}
	for id := range nSums {
		ids[id] = true
	}
	for id := range fSums {
		ids[id] = true
	}
	a := &Analysis{}
	for id := range ids {
		a.Tasks = append(a.Tasks, TaskProgress{ID: id, Score: Score(nSums[id], fSums[id])})
	}
	sort.Slice(a.Tasks, func(i, j int) bool {
		if a.Tasks[i].Score != a.Tasks[j].Score {
			return a.Tasks[i].Score < a.Tasks[j].Score
		}
		return a.Tasks[i].ID.Less(a.Tasks[j].ID)
	})
	return a
}

// LeastProgressed returns up to k thread IDs with the lowest progress —
// PRODOMETER's "least progressed tasks", the deadlock-cascade root-cause
// candidates.
func (a *Analysis) LeastProgressed(k int) []trace.ThreadID {
	var out []trace.ThreadID
	for _, t := range a.Tasks {
		if len(out) >= k {
			break
		}
		out = append(out, t.ID)
	}
	return out
}

// Render prints the ranking like a progress table.
func (a *Analysis) Render() string {
	var b strings.Builder
	b.WriteString("relative progress (least progressed first)\n")
	for _, t := range a.Tasks {
		fmt.Fprintf(&b, "  %-6s %6.1f%%  %s\n", t.ID, t.Score*100, bar(t.Score))
	}
	return b.String()
}

func bar(p float64) string {
	n := int(p * 30)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", 30-n) + "]"
}
