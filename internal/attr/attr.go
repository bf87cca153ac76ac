// Package attr mines FCA attributes from NLR-summarized traces, implementing
// Table V of the paper: attributes are either single entries of the trace
// NLR or consecutive pairs of entries, each optionally tagged with its
// observed frequency, the log10 of that frequency, or no frequency at all.
//
// These are the "versatile knobs to adjust for bug-location and similarity
// calculation": noFreq captures pure structure (which calls/loops appear),
// actual frequency captures progress (how often), and log10 is the
// magnitude-only middle ground.
package attr

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"difftrace/internal/fca"
	"difftrace/internal/nlr"
)

// Interner is the dense attribute universe of one diff run, re-exported so
// pipeline callers can build one without importing fca directly. Handing
// the same interner to ExtractIn for every object (and to
// fca.NewLatticeWith) keeps all intents of a run in one bit universe, which
// is what turns lattice and JSM kernels into word operations.
type Interner = fca.Interner

// NewInterner returns an empty attribute universe.
func NewInterner() *Interner { return fca.NewInterner() }

// Kind selects single entries or consecutive pairs (Table V rows).
type Kind int

const (
	// Single uses each entry of the trace NLR as an attribute.
	Single Kind = iota
	// Double uses each pair of consecutive entries of the NLR sequence.
	Double
	// Context uses caller→callee pairs reconstructed from the trace's
	// enter/exit nesting — the attribute family Weber et al.'s structural
	// clustering [5] actually mines ("determined based on caller/callee
	// relationships", §I). Unlike Single/Double it reads the raw trace,
	// so the front-end filter must keep returns (DropReturns = false).
	Context
)

// Freq selects how the observed frequency is folded into the attribute
// (Table V columns).
type Freq int

const (
	// Actual records the exact observed frequency.
	Actual Freq = iota
	// Log10 records floor(log10(frequency)) — the order of magnitude.
	Log10
	// NoFreq records only presence/absence.
	NoFreq
)

// Config is one attribute-extraction setting; the ranking tables label rows
// with its String() ("sing.noFreq", "doub.log10", ...).
type Config struct {
	Kind Kind
	Freq Freq
}

// String renders the table label.
func (c Config) String() string {
	k := "sing"
	switch c.Kind {
	case Double:
		k = "doub"
	case Context:
		k = "ctx"
	}
	var f string
	switch c.Freq {
	case Actual:
		f = "actual"
	case Log10:
		f = "log10"
	case NoFreq:
		f = "noFreq"
	}
	return k + "." + f
}

// ParseConfig parses a table label produced by String.
func ParseConfig(s string) (Config, error) {
	k, f, ok := strings.Cut(s, ".")
	if !ok {
		return Config{}, fmt.Errorf("attr: bad config %q", s)
	}
	var c Config
	switch k {
	case "sing":
		c.Kind = Single
	case "doub":
		c.Kind = Double
	case "ctx":
		c.Kind = Context
	default:
		return Config{}, fmt.Errorf("attr: bad kind %q", k)
	}
	switch f {
	case "actual":
		c.Freq = Actual
	case "log10":
		c.Freq = Log10
	case "noFreq":
		c.Freq = NoFreq
	default:
		return Config{}, fmt.Errorf("attr: bad freq %q", f)
	}
	return c, nil
}

// AllConfigs returns the six Kind×Freq combinations of Table V — the sweep
// space of the paper's ranking tables. The Context kind is an extension
// and is not part of the canonical sweep.
func AllConfigs() []Config {
	var out []Config
	for _, k := range []Kind{Single, Double} {
		for _, f := range []Freq{Actual, Log10, NoFreq} {
			out = append(out, Config{Kind: k, Freq: f})
		}
	}
	return out
}

// entryToken renders an NLR element for attribute purposes: plain symbols
// keep their name; loops contribute their body ID ("L3") so the *identity*
// of the loop is the attribute and the iteration count flows into the
// frequency instead.
func entryToken(e nlr.Element) string {
	if e.Loop == nil {
		return e.Sym
	}
	return fmt.Sprintf("L%d", e.Loop.ID)
}

// entryWeight is the frequency contribution of one element: 1 for a plain
// call, the iteration count for a loop (an unfinished loop thus shows up as
// a frequency drop — the "per-thread measure of progress" of §II-A).
func entryWeight(e nlr.Element) int {
	if e.Loop == nil {
		return 1
	}
	return e.Loop.Count
}

// Extract mines the attribute set of one summarized trace into a private
// attribute universe.
func Extract(elems []nlr.Element, cfg Config) fca.AttrSet {
	return ExtractIn(fca.NewInterner(), elems, cfg)
}

// ExtractIn is Extract binding the result to a shared interner. Attributes
// are interned in sorted order, so for a given sequence of ExtractIn calls
// the IDs the interner assigns are reproducible — the property the
// determinism suite leans on when one interner is shared across a run.
// Calls on the same interner may not run concurrently if ID assignment
// must stay deterministic; parallel extraction uses private interners and
// re-interns at the barrier (see core's analyze).
func ExtractIn(in *Interner, elems []nlr.Element, cfg Config) fca.AttrSet {
	freqs := make(map[string]int)
	switch cfg.Kind {
	case Single:
		for _, e := range elems {
			freqs[entryToken(e)] += entryWeight(e)
		}
	case Double:
		for i := 0; i+1 < len(elems); i++ {
			pair := entryToken(elems[i]) + "|" + entryToken(elems[i+1])
			freqs[pair]++
		}
	}
	return renderAll(in, freqs, cfg.Freq)
}

// renderAll folds a frequency table into an attribute set bound to in,
// interning in sorted-name order for reproducible IDs.
func renderAll(in *Interner, freqs map[string]int, f Freq) fca.AttrSet {
	names := make([]string, 0, len(freqs))
	for a := range freqs {
		names = append(names, a)
	}
	sort.Strings(names)
	out := fca.NewAttrSetIn(in)
	for _, a := range names {
		out.Add(render(a, freqs[a], f))
	}
	return out
}

// render folds the frequency into the attribute name per Table V.
func render(attrName string, freq int, f Freq) string {
	switch f {
	case Actual:
		return fmt.Sprintf("%s:%d", attrName, freq)
	case Log10:
		return fmt.Sprintf("%s:e%d", attrName, int(math.Floor(math.Log10(float64(freq)))))
	default:
		return attrName
	}
}
