package core

import (
	"fmt"
	"io"
	"strings"

	"difftrace/internal/bscore"
)

// RenderOptions controls WriteReport's sections.
type RenderOptions struct {
	TopK        int  // suspects listed and diffNLR'd per level (default 3)
	Heatmaps    bool // include JSM_D heatmaps
	Dendrograms bool // include the two linkage merge sequences
	Lattices    bool // include concept lattices (requires BuildLattices)
	Color       bool // ANSI colors in diffNLR blocks
}

// WriteReport renders the full human-readable debugging report for one
// comparison: the configuration, per-level B-scores and suspect rankings,
// and the diffNLR of each top suspect — the artifact a DiffTrace iteration
// hands to the engineer (Figure 1's right-hand side).
func (r *Report) WriteReport(w io.Writer, opts RenderOptions) error {
	if opts.TopK <= 0 {
		opts.TopK = 3
	}
	fmt.Fprintf(w, "DiffTrace report\n")
	fmt.Fprintf(w, "  filter:  %s\n", r.Cfg.Filter)
	fmt.Fprintf(w, "  attrs:   %s\n", r.Cfg.Attr)
	fmt.Fprintf(w, "  linkage: %s\n\n", r.Cfg.Linkage)

	levels := []struct {
		name  string
		level *Level
	}{
		{"threads", r.Threads},
		{"processes", r.Processes},
	}
	for _, l := range levels {
		fmt.Fprintf(w, "== %s ==\n", l.name)
		fmt.Fprintf(w, "B-score: %.3f\n", l.level.BScore)
		if curve, err := bscore.RenderCurve(l.level.Normal.Linkage, l.level.Faulty.Linkage); err == nil {
			fmt.Fprintln(w, curve)
		}
		fmt.Fprintf(w, "suspects (similarity-row change):\n")
		shown := 0
		for _, s := range l.level.Suspects {
			if shown >= opts.TopK || s.Score <= 0 {
				break
			}
			fmt.Fprintf(w, "  %2d. %-8s %.3f\n", shown+1, s.Name, s.Score)
			shown++
		}
		if shown == 0 {
			fmt.Fprintln(w, "  (no similarity changes — executions indistinguishable under this configuration)")
		}
		if opts.Heatmaps {
			fmt.Fprintln(w, "JSM_D heatmap:")
			fmt.Fprint(w, indent(l.level.JSMD.Heatmap(), "  "))
		}
		if opts.Dendrograms {
			fmt.Fprintln(w, "normal dendrogram:")
			fmt.Fprint(w, indent(l.level.Normal.Linkage.Render(l.level.Normal.JSM.Names), "  "))
			fmt.Fprintln(w, "faulty dendrogram:")
			fmt.Fprint(w, indent(l.level.Faulty.Linkage.Render(l.level.Faulty.JSM.Names), "  "))
		}
		if opts.Lattices && l.level.Faulty.Lattice != nil {
			fmt.Fprintln(w, "faulty concept lattice:")
			fmt.Fprint(w, indent(l.level.Faulty.Lattice.Render(), "  "))
		}
		// diffNLR for each changed top suspect.
		for i, s := range l.level.Suspects {
			if i >= opts.TopK || s.Score <= 0 {
				break
			}
			d, err := r.DiffNLR(l.level, s.Name)
			if err != nil {
				return err
			}
			if d.Identical() {
				fmt.Fprintf(w, "\ndiffNLR(%s): traces identical (row changed via other objects)\n", s.Name)
				continue
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, d.Render(opts.Color))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Summary returns a one-paragraph verdict: the most suspicious objects and
// what their diffNLRs say.
func (r *Report) Summary() string {
	var b strings.Builder
	top := r.Threads.TopSuspects(3, 1e-9)
	if len(top) == 0 {
		return "no behavioural differences detected under this configuration"
	}
	fmt.Fprintf(&b, "most affected traces: %s (B-score %.3f)",
		strings.Join(top, ", "), r.Threads.BScore)
	if d, err := r.DiffNLR(r.Threads, top[0]); err == nil && !d.Identical() {
		fmt.Fprintf(&b, "; diffNLR(%s): %s", top[0], d.Verdict())
	}
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
