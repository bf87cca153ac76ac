package diffnlr

// divergence.go is the FindDivergence pass: given a thread's aligned
// normal/faulty NLR sequences (summarized against one shared loop table,
// as core produces them), locate the first point the two structures part
// ways and translate it back into raw-stream terms — which function, at
// which expanded event index, after which common context.
//
// The pass never materializes an expansion. It walks the summarized
// sequences and advances an event cursor by loop arithmetic
// (nlr.ExpandedLen), so its cost is O(summary size) and it composes with
// the streaming pipeline's memory contract.
//
// EventIndex is a proven lower bound on the raw divergence: structurally
// equal elements expand to identical substreams (equal leaves trivially;
// equal loop IDs intern the same body, and equal counts repeat it
// identically), so every raw event before EventIndex is equal in both
// runs. The bound is what the fuzz target (FuzzFindDivergence) checks:
// divergence index ≤ first differing raw event. Token inequality does NOT
// imply the raw streams differ at that point ([A A] and L0^2 expand
// identically), so the pass reports where the *structures* diverge and
// guarantees only the prefix property — which is exactly what a user
// triaging a fault needs: everything before this point is provably
// identical.

import "difftrace/internal/nlr"

// DivergenceKind classifies how the faulty sequence departs from the
// normal one at the divergence point.
type DivergenceKind string

const (
	// Mutation: both sequences continue but with different structure
	// (different call, or a loop replaced by something else).
	Mutation DivergenceKind = "mutation"
	// LoopCount: same loop body, different iteration count — the paper's
	// "L0^24 vs L0^2" signature (Figure 6).
	LoopCount DivergenceKind = "loop-count"
	// FaultyStops: the faulty sequence ends while the normal one
	// continues — the hang/truncation signature.
	FaultyStops DivergenceKind = "faulty-stops"
	// FaultyExtends: the faulty sequence continues past the end of the
	// normal one (extra work, e.g. a retry storm).
	FaultyExtends DivergenceKind = "faulty-extends"
)

// ContextTokens is how many common tokens of leading context a Divergence
// carries (the tokens immediately before the divergence point).
const ContextTokens = 3

// Divergence is the first point a normal/faulty NLR pair parts ways.
type Divergence struct {
	Object string         `json:"object"` // thread/process name; set by callers
	Kind   DivergenceKind `json:"kind"`

	// Func is the headline function: the first call of the normal run's
	// continuation when the normal side still has one (the call the faulty
	// run changed, repeated differently, or never made), otherwise the
	// first call of the faulty run's extra tail.
	Func string `json:"func"`

	// TokenIndex is the position in the aligned token sequences where the
	// structures first differ; EventIndex is the expanded (raw-stream)
	// event position proven identical up to that point.
	TokenIndex int   `json:"token_index"`
	EventIndex int64 `json:"event_index"`

	// NormalTok/FaultyTok are the diverging heads ("" when that side is
	// exhausted). For LoopCount they name the same loop with different
	// counts.
	NormalTok string `json:"normal_tok,omitempty"`
	FaultyTok string `json:"faulty_tok,omitempty"`

	// Context holds up to ContextTokens common tokens immediately before
	// the divergence point, oldest first.
	Context []string `json:"context,omitempty"`
}

// eq is structural equality of two elements summarized against one shared
// table: same symbol, or same loop identity repeated the same number of
// times (ID equality ⇔ interned body equality).
func eq(a, b nlr.Element) bool {
	if (a.Loop == nil) != (b.Loop == nil) {
		return false
	}
	if a.Loop == nil {
		return a.Sym == b.Sym
	}
	return a.Loop.ID == b.Loop.ID && a.Loop.Count == b.Loop.Count
}

// firstSym returns the first raw symbol elems would expand to ("" when
// empty). A loop's first symbol is its body's, by recursion — counts are
// ≥ 1 by construction.
func firstSym(elems []nlr.Element) string {
	for _, e := range elems {
		if e.Loop == nil {
			return e.Sym
		}
		if s := firstSym(e.Loop.Body); s != "" {
			return s
		}
	}
	return ""
}

// FindDivergence locates the first structural divergence between a
// normal and a faulty summarized sequence. Both must come from the same
// loop table (as all sequences in one core run do). Returns nil when the
// structures are identical.
func FindDivergence(normal, faulty []nlr.Element) *Divergence {
	i := 0
	var events int64
	for i < len(normal) && i < len(faulty) && eq(normal[i], faulty[i]) {
		events += nlr.ExpandedLen(normal[i : i+1])
		i++
	}
	if i == len(normal) && i == len(faulty) {
		return nil
	}

	d := &Divergence{TokenIndex: i, EventIndex: events}
	for c := max(0, i-ContextTokens); c < i; c++ {
		d.Context = append(d.Context, normal[c].Token())
	}
	switch {
	case i == len(faulty):
		d.Kind = FaultyStops
		d.NormalTok = normal[i].Token()
		d.Func = firstSym(normal[i:])
	case i == len(normal):
		d.Kind = FaultyExtends
		d.FaultyTok = faulty[i].Token()
		d.Func = firstSym(faulty[i:])
	default:
		n, f := normal[i], faulty[i]
		d.NormalTok = n.Token()
		d.FaultyTok = f.Token()
		d.Func = firstSym(normal[i:])
		if n.Loop != nil && f.Loop != nil && n.Loop.ID == f.Loop.ID {
			// Same interned body looping a different number of times: the
			// first min(c1,c2) iterations still expand identically, so the
			// proven-equal prefix extends past the token boundary.
			d.Kind = LoopCount
			m := n.Loop.Count
			if f.Loop.Count < m {
				m = f.Loop.Count
			}
			d.EventIndex += int64(m) * nlr.ExpandedLen(n.Loop.Body)
		} else {
			d.Kind = Mutation
		}
	}
	return d
}
