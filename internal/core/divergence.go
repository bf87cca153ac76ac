package core

// divergence.go is the report-level FindDivergence pass: it walks every
// aligned normal/faulty NLR pair of a finished Report (both levels),
// locates each object's first divergence point via diffnlr.FindDivergence,
// and cross-references the JSM clustering by annotating each diverging
// object with its suspect rank. The pass reads only the summarized NLR
// maps a Report already holds — it composes with compressed sources for
// free, costs O(summary), and needs no re-ingestion.
//
// Determinism contract: objects are walked in natural order from a sorted
// slice and results land by index, so the rendered report is byte-identical
// across worker counts and across materialized vs compressed sources (the
// golden divergence suite pins this).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"difftrace/internal/diffnlr"
	"difftrace/internal/jaccard"
	"difftrace/internal/nlr"
	"difftrace/internal/pool"
	"difftrace/internal/resilience"
)

// ObjectDivergence is one object's divergence, annotated with its standing
// in the level's JSM suspect ranking (rank 0 = not ranked / score ≤ 0).
type ObjectDivergence struct {
	diffnlr.Divergence
	SuspectRank  int     `json:"suspect_rank,omitempty"`
	SuspectScore float64 `json:"suspect_score,omitempty"`
}

// LevelDivergence is one granularity's divergence sweep.
type LevelDivergence struct {
	Level   string              `json:"level"` // "threads" | "processes"
	Objects int                 `json:"objects"`
	Items   []*ObjectDivergence `json:"items,omitempty"` // diverged objects, natural order
	// ConsensusFunc/ConsensusKind summarize the sweep across the
	// clustering: the (function, kind) shared by the most diverging
	// objects (ties broken by natural function order), with the count.
	ConsensusFunc  string                 `json:"consensus_func,omitempty"`
	ConsensusKind  diffnlr.DivergenceKind `json:"consensus_kind,omitempty"`
	ConsensusCount int                    `json:"consensus_count,omitempty"`
}

// DivergenceReport is the output of one FindDivergence pass.
type DivergenceReport struct {
	Threads   *LevelDivergence `json:"threads"`
	Processes *LevelDivergence `json:"processes"`
	// Degraded lists objects the pass skipped under Resilient (a panic in
	// the walk degrades that object instead of aborting the pass). The
	// JSON form carries the rendered messages, not the error values.
	Degraded         []*resilience.StageError `json:"-"`
	DegradedMessages []string                 `json:"degraded,omitempty"`

	table *nlr.Table
}

// FindDivergenceContext runs the pass with the Report's own Config
// (workers, Resilient, Obs). Every worker claim observes ctx, and a
// cancelled pass aborts even under Config.Resilient. A nil ctx is never
// cancelled.
func (r *Report) FindDivergenceContext(ctx context.Context) (*DivergenceReport, error) {
	run := r.Cfg.Obs
	sp := run.StartSpan("divergence")
	defer sp.End()

	out := &DivergenceReport{table: r.LoopTable}
	levels := []struct {
		name  string
		level *Level
		dst   **LevelDivergence
	}{
		{"threads", r.Threads, &out.Threads},
		{"processes", r.Processes, &out.Processes},
	}
	for _, l := range levels {
		ld, degraded, err := r.levelDivergence(ctx, l.name, l.level)
		if err != nil {
			return nil, err
		}
		*l.dst = ld
		out.Degraded = append(out.Degraded, degraded...)
	}
	run.Counter("core.divergence.degraded").Add(int64(len(out.Degraded)))
	return out, nil
}

func (r *Report) levelDivergence(ctx context.Context, name string, level *Level) (*LevelDivergence, []*resilience.StageError, error) {
	run := r.Cfg.Obs
	ld := &LevelDivergence{Level: name}
	if level == nil || level.Normal == nil || level.Faulty == nil {
		return ld, nil, nil
	}

	// Union of both sides' objects: an object missing from one side is
	// itself a divergence (the other side's whole sequence is the tail).
	seen := map[string]bool{}
	for o := range level.Normal.NLR {
		seen[o] = true
	}
	for o := range level.Faulty.NLR {
		seen[o] = true
	}
	objs := make([]string, 0, len(seen))
	for o := range seen {
		objs = append(objs, o)
	}
	sort.Sort(jaccard.NaturalOrder(objs))
	ld.Objects = len(objs)

	results := make([]*ObjectDivergence, len(objs))
	degraded := make([]*resilience.StageError, len(objs))
	stage := "divergence " + name
	poolErr := pool.Do(ctx, run, "core.divergence", r.Cfg.workers(), len(objs), func(i int) {
		o := objs[i]
		walk := func() error {
			fireStage(stage, o)
			d := diffnlr.FindDivergence(level.Normal.NLR[o], level.Faulty.NLR[o])
			if d == nil {
				return nil
			}
			d.Object = o
			results[i] = &ObjectDivergence{Divergence: *d}
			return nil
		}
		if !r.Cfg.Resilient {
			// A panic here propagates through the pool, matching the
			// non-Resilient pipeline contract (fail loudly, no partial
			// output).
			_ = walk()
			return
		}
		if serr := resilience.Guard(stage, o, walk); serr != nil {
			degraded[i] = serr
			results[i] = nil
		}
	})
	if poolErr != nil {
		return nil, nil, fmt.Errorf("core: divergence: %w", poolErr)
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, nil, fmt.Errorf("core: divergence: %w", ctx.Err())
	}

	// Suspect annotation: rank = 1-based position among positive-score
	// suspects in the level's JSM ranking.
	rank := map[string]int{}
	score := map[string]float64{}
	for i, s := range level.Suspects {
		if s.Score <= 0 {
			break
		}
		rank[s.Name] = i + 1
		score[s.Name] = s.Score
	}
	for _, d := range results {
		if d == nil {
			continue
		}
		d.SuspectRank = rank[d.Object]
		d.SuspectScore = score[d.Object]
		ld.Items = append(ld.Items, d)
	}
	var skipped []*resilience.StageError
	for _, serr := range degraded {
		if serr != nil {
			skipped = append(skipped, serr)
		}
	}
	ld.consensus()

	run.Counter("core.divergence.objects").Add(int64(ld.Objects))
	run.Counter("core.divergence.diverged").Add(int64(len(ld.Items)))
	run.Counter("core.divergence.identical").Add(int64(ld.Objects - len(ld.Items)))
	return ld, skipped, nil
}

// consensus picks the (func, kind) pair shared by the most diverging
// objects — the "across the clustering" headline. Ties break by natural
// function order then kind, so the choice is deterministic.
func (ld *LevelDivergence) consensus() {
	if len(ld.Items) == 0 {
		return
	}
	type key struct {
		fn   string
		kind diffnlr.DivergenceKind
	}
	counts := map[key]int{}
	for _, d := range ld.Items {
		counts[key{d.Func, d.Kind}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		if keys[i].fn != keys[j].fn {
			return jaccard.LessNatural(keys[i].fn, keys[j].fn)
		}
		return keys[i].kind < keys[j].kind
	})
	best := keys[0]
	ld.ConsensusFunc, ld.ConsensusKind, ld.ConsensusCount = best.fn, best.kind, counts[best]
}

var divLoopTokRE = regexp.MustCompile(`^L(\d+)\^\d+$`)

// Render writes the human-readable divergence explorer table: a
// "degraded:" line per object the pass skipped, then per level a row per
// diverging object (kind, headline function, token and proven-equal event
// index, the diverging heads, suspect rank), the clustering consensus, and
// a legend resolving any loop tokens the rows mention.
func (d *DivergenceReport) Render(w io.Writer) error {
	fmt.Fprintf(w, "divergence explorer\n")
	for _, serr := range d.Degraded {
		fmt.Fprintf(w, "degraded: %s\n", serr)
	}
	for _, ld := range []*LevelDivergence{d.Threads, d.Processes} {
		if ld == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s ==\n", ld.Level)
		if len(ld.Items) == 0 {
			fmt.Fprintf(w, "no divergence: all %d objects have identical NLR structure\n", ld.Objects)
			continue
		}
		fmt.Fprintf(w, "%d/%d objects diverge\n", len(ld.Items), ld.Objects)

		wObj, wFunc, wTok := len("object"), len("func"), len("normal|faulty")
		for _, it := range ld.Items {
			wObj = max(wObj, len(it.Object))
			wFunc = max(wFunc, len(it.Func))
			wTok = max(wTok, len(headCol(it)))
		}
		fmt.Fprintf(w, "%-*s  %-14s %-*s %7s %8s  %-*s %s\n",
			wObj, "object", "kind", wFunc, "func", "token", "event", wTok, "normal|faulty", "rank")
		for _, it := range ld.Items {
			rank := "-"
			if it.SuspectRank > 0 {
				rank = fmt.Sprintf("#%d (%.3f)", it.SuspectRank, it.SuspectScore)
			}
			fmt.Fprintf(w, "%-*s  %-14s %-*s %7d %8d  %-*s %s\n",
				wObj, it.Object, string(it.Kind), wFunc, it.Func,
				it.TokenIndex, it.EventIndex, wTok, headCol(it), rank)
		}
		fmt.Fprintf(w, "consensus: %s at %s (%d of %d diverging objects)\n",
			ld.ConsensusKind, ld.ConsensusFunc, ld.ConsensusCount, len(ld.Items))
		if legend := d.legend(ld); legend != "" {
			fmt.Fprint(w, legend)
		}
	}
	return nil
}

// headCol renders the diverging heads as "normal|faulty" with ∅ for an
// exhausted side.
func headCol(it *ObjectDivergence) string {
	n, f := it.NormalTok, it.FaultyTok
	if n == "" {
		n = "(end)"
	}
	if f == "" {
		f = "(end)"
	}
	return n + "|" + f
}

// legend resolves loop tokens mentioned in the level's rows through the
// run's loop table, like diffNLR's legend.
func (d *DivergenceReport) legend(ld *LevelDivergence) string {
	if d.table == nil {
		return ""
	}
	ids := map[int]bool{}
	collect := func(tok string) {
		if m := divLoopTokRE.FindStringSubmatch(tok); m != nil {
			id, _ := strconv.Atoi(m[1])
			ids[id] = true
		}
	}
	for _, it := range ld.Items {
		collect(it.NormalTok)
		collect(it.FaultyTok)
		for _, tok := range it.Context {
			collect(tok)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	sorted := make([]int, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Ints(sorted)
	var b strings.Builder
	for _, id := range sorted {
		fmt.Fprintf(&b, "L%d = %s\n", id, d.table.Describe(id))
	}
	return b.String()
}

// WriteJSON writes the machine-readable report (stable field order, keyed
// for jq-style scripting).
func (d *DivergenceReport) WriteJSON(w io.Writer) error {
	d.DegradedMessages = d.DegradedMessages[:0]
	for _, serr := range d.Degraded {
		d.DegradedMessages = append(d.DegradedMessages, serr.Error())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
