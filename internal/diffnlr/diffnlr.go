// Package diffnlr renders the diffNLR view of §II-F.1: a Myers diff of the
// NLR token sequences of a normal trace T_x and its faulty counterpart T'_x,
// laid out as a common "main stem" with normal-only and faulty-only blocks
// hanging off it — the presentation of Figures 5, 6 and 7.
//
// In the paper's color scheme the stem is green, normal-only blocks are
// blue, faulty-only blocks are red; the text renderer uses "  " / "- " /
// "+ " gutters (and optional ANSI colors) with the normal run in the left
// column and the faulty run in the right.
package diffnlr

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"difftrace/internal/diff"
	"difftrace/internal/nlr"
	"difftrace/internal/trace"
)

// DiffNLR is the computed diff of one thread's normal vs faulty NLR
// sequences, as in the paper's diffNLR(x) ≡ diffNLR(T_x, T'_x).
type DiffNLR struct {
	ID     trace.ThreadID
	Normal []string // NLR tokens of T_x
	Faulty []string // NLR tokens of T'_x
	Edits  []diff.Edit
	Table  *nlr.Table // optional: resolves loop IDs in the legend
	loops  []int      // IDs of the loops either sequence shows
}

// Compute diffs the token sequences of two summarized sequences. table
// may be nil (no legend).
func Compute(id trace.ThreadID, normal, faulty []nlr.Element, table *nlr.Table) *DiffNLR {
	n, f := nlr.Tokens(normal), nlr.Tokens(faulty)
	d := &DiffNLR{ID: id, Normal: n, Faulty: f, Edits: diff.Diff(n, f), Table: table}
	for _, seq := range [][]nlr.Element{normal, faulty} {
		for _, e := range seq {
			d.loops = appendLoopID(d.loops, e)
		}
	}
	return d
}

// appendLoopID appends e's loop ID to ids when e is a loop.
func appendLoopID(ids []int, e nlr.Element) []int {
	if e.Loop != nil {
		ids = append(ids, e.Loop.ID)
	}
	return ids
}

// Identical reports whether the two sequences match exactly.
func (d *DiffNLR) Identical() bool {
	for _, e := range d.Edits {
		if e.Op != diff.Equal {
			return false
		}
	}
	return true
}

// Distance returns the edit distance between the two sequences.
func (d *DiffNLR) Distance() int { return diff.Distance(d.Edits) }

// ANSI escape codes used when color is enabled.
const (
	ansiGreen = "\x1b[32m"
	ansiBlue  = "\x1b[34m"
	ansiRed   = "\x1b[31m"
	ansiReset = "\x1b[0m"
)

// Render lays the diff out in two columns (normal left, faulty right).
// Common tokens occupy both columns; normal-only tokens get a "- " gutter
// in the left column, faulty-only a "+ " gutter in the right.
func (d *DiffNLR) Render(color bool) string {
	// width is in bytes, but a column pads its token to width runes (as
	// fmt's %-*s does), so a multi-byte token's line is that much longer.
	width, lines, wide := 12, 0, 0
	for _, e := range d.Edits {
		lines += len(e.Tokens)
		for _, tok := range e.Tokens {
			width = max(width, len(tok)+2)
			wide += 2 * (len(tok) - utf8.RuneCountInString(tok))
		}
	}
	id, legend, verdict := d.ID.String(), d.Legend(), d.Verdict()
	lineLen := 2*width + 6
	if color {
		lineLen += len(ansiGreen) + len(ansiReset)
	}
	spaces := strings.Repeat(" ", width)
	rule := strings.Repeat("-", 2*width+12)

	var b strings.Builder
	// The header, two rules, the token lines, the legend and the verdict.
	b.Grow(len(id) + width + 19 + 2*len(rule) + 2 + lines*lineLen + wide + len(legend) + len(verdict) + 10)
	line := func(code, gutter, left, mid, right string) {
		if color {
			b.WriteString(code)
		}
		b.WriteString(gutter)
		writeCol(&b, left, spaces)
		b.WriteString(mid)
		writeCol(&b, right, spaces)
		if color {
			b.WriteString(ansiReset)
		}
		b.WriteByte('\n')
	}
	b.WriteString("diffNLR(")
	b.WriteString(id)
	b.WriteString(")  ")
	writeCol(&b, "normal", spaces)
	b.WriteString(" faulty\n")
	b.WriteString(rule)
	b.WriteByte('\n')
	for _, e := range d.Edits {
		for _, tok := range e.Tokens {
			switch e.Op {
			case diff.Equal:
				line(ansiGreen, "  ", tok, "   ", tok)
			case diff.Delete:
				line(ansiBlue, "- ", tok, "   ", "")
			case diff.Insert:
				line(ansiRed, "  ", "", " + ", tok)
			}
		}
	}
	b.WriteString(rule)
	b.WriteByte('\n')
	b.WriteString(legend)
	if verdict != "" {
		b.WriteString("verdict: ")
		b.WriteString(verdict)
		b.WriteByte('\n')
	}
	return b.String()
}

// writeCol writes tok left-aligned in a column of len(spaces) runes, as
// fmt's %-*s pads it; tok has fewer runes than that.
func writeCol(b *strings.Builder, tok, spaces string) {
	b.WriteString(tok)
	b.WriteString(spaces[utf8.RuneCountInString(tok):])
}

// Legend resolves every loop either sequence shows through the loop
// table, like the paper's "L0 represents CPU_Exec" notes.
func (d *DiffNLR) Legend() string {
	if d.Table == nil {
		return ""
	}
	return d.Table.Legend(d.loops)
}

// Verdict produces the Figure 6-style interpretation hints: whether the
// faulty trace was cut short (last common token ≠ last normal token) and
// which call it stopped after.
func (d *DiffNLR) Verdict() string {
	if d.Identical() {
		return "traces identical"
	}
	if len(d.Normal) == 0 || len(d.Faulty) == 0 {
		return ""
	}
	lastN := d.Normal[len(d.Normal)-1]
	lastF := d.Faulty[len(d.Faulty)-1]
	if lastN != lastF {
		// The faulty run never reached the normal run's final call — the
		// signature of a hang/deadlock truncation (Figure 6).
		return fmt.Sprintf("faulty trace stopped after %s and never reached %s", lastF, lastN)
	}
	return fmt.Sprintf("both traces reach %s; loop structures differ (edit distance %d)", lastN, d.Distance())
}
