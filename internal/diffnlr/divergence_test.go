package diffnlr

import (
	"math/rand"
	"testing"

	"difftrace/internal/nlr"
)

func summarizePair(a, b []string) ([]nlr.Element, []nlr.Element) {
	table := nlr.NewTable()
	return nlr.Summarize(a, nlr.DefaultK, table), nlr.Summarize(b, nlr.DefaultK, table)
}

func firstDiff(a, b []string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func rep(syms []string, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, syms...)
	}
	return out
}

func TestDivergenceKinds(t *testing.T) {
	ab := []string{"a", "b"}
	cases := []struct {
		name           string
		normal, faulty []string
		kind           DivergenceKind
		fn             string
	}{
		{"mutation", []string{"x", "send", "y"}, []string{"x", "recv", "y"}, Mutation, "send"},
		{"loop-count", append(rep(ab, 8), "z"), append(rep(ab, 5), "z"), LoopCount, "a"},
		{"faulty-stops", []string{"x", "y", "z"}, []string{"x"}, FaultyStops, "y"},
		{"faulty-extends", []string{"x"}, []string{"x", "y", "z"}, FaultyExtends, "y"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			en, ef := summarizePair(c.normal, c.faulty)
			d := FindDivergence(en, ef)
			if d == nil {
				t.Fatal("no divergence found")
			}
			if d.Kind != c.kind {
				t.Fatalf("kind = %s, want %s (%+v)", d.Kind, c.kind, d)
			}
			if d.Func != c.fn {
				t.Fatalf("func = %q, want %q (%+v)", d.Func, c.fn, d)
			}
			first := firstDiff(c.normal, c.faulty)
			if int(d.EventIndex) > first {
				t.Fatalf("EventIndex %d > first differing raw event %d", d.EventIndex, first)
			}
		})
	}
}

func TestDivergenceLoopCountEventIndex(t *testing.T) {
	// [a b]*8 z   vs   [a b]*5 z : the first 5 iterations are proven
	// equal, so the loop-count refinement must push EventIndex to 10 —
	// exactly the first raw index where the streams differ.
	normal := append(rep([]string{"a", "b"}, 8), "z")
	faulty := append(rep([]string{"a", "b"}, 5), "z")
	en, ef := summarizePair(normal, faulty)
	d := FindDivergence(en, ef)
	if d == nil || d.Kind != LoopCount {
		t.Fatalf("want LoopCount divergence, got %+v", d)
	}
	if d.EventIndex != 10 {
		t.Fatalf("EventIndex = %d, want 10", d.EventIndex)
	}
}

func TestDivergenceNilIffIdenticalStructure(t *testing.T) {
	toks := rep([]string{"a", "b", "c"}, 6)
	table := nlr.NewTable()
	en := nlr.Summarize(toks, nlr.DefaultK, table)
	ef := nlr.Summarize(append([]string(nil), toks...), nlr.DefaultK, table)
	if d := FindDivergence(en, ef); d != nil {
		t.Fatalf("identical streams diverge: %+v", d)
	}
}

// TestDivergenceMinimalityProperty is the randomized version of the fuzz
// invariant, run on every `go test`: for seed-driven stream pairs the
// expanded streams are byte-identical before EventIndex, hence EventIndex
// is ≤ the first differing raw event.
func TestDivergenceMinimalityProperty(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randStream(rng, 5, 60)
		mutated := mutate(rng, base)
		en, ef := summarizePair(base, mutated)
		d := FindDivergence(en, ef)
		xa, xb := nlr.Expand(en), nlr.Expand(ef)
		checkDivergenceInvariants(t, d, xa, xb)
	}
}

// checkDivergenceInvariants asserts the contract FindDivergence proves:
// nil ⇔ equal structures (hence equal expansions), and a non-nil result's
// EventIndex bounds a byte-identical expanded prefix.
func checkDivergenceInvariants(t *testing.T, d *Divergence, xa, xb []string) {
	t.Helper()
	first := firstDiff(xa, xb)
	if d == nil {
		if first != -1 {
			t.Fatalf("divergence nil but raw streams differ at %d", first)
		}
		return
	}
	minLen := len(xa)
	if len(xb) < minLen {
		minLen = len(xb)
	}
	if d.EventIndex > int64(minLen) {
		t.Fatalf("EventIndex %d exceeds shorter stream (%d)", d.EventIndex, minLen)
	}
	for i := int64(0); i < d.EventIndex; i++ {
		if xa[i] != xb[i] {
			t.Fatalf("streams differ at %d inside the proven-equal prefix (EventIndex %d)", i, d.EventIndex)
		}
	}
	if first != -1 && d.EventIndex > int64(first) {
		t.Fatalf("EventIndex %d > first differing raw event %d", d.EventIndex, first)
	}
}

func randStream(rng *rand.Rand, alphabet, maxLen int) []string {
	n := rng.Intn(maxLen)
	out := make([]string, 0, n*3)
	for len(out) < n {
		if rng.Intn(3) == 0 {
			// Inject a repetition so loops actually form.
			body := randSyms(rng, alphabet, 1+rng.Intn(3))
			for it := 1 + rng.Intn(6); it > 0; it-- {
				out = append(out, body...)
			}
			continue
		}
		out = append(out, sym(rng.Intn(alphabet)))
	}
	return out
}

func randSyms(rng *rand.Rand, alphabet, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = sym(rng.Intn(alphabet))
	}
	return out
}

func sym(i int) string { return string(rune('a' + i)) }

// mutate applies a random fault shape: substitution, deletion window
// (truncation when it reaches the end), insertion, or none.
func mutate(rng *rand.Rand, base []string) []string {
	out := append([]string(nil), base...)
	if len(out) == 0 {
		return out
	}
	switch rng.Intn(4) {
	case 0: // substitute one call
		out[rng.Intn(len(out))] = "mut"
	case 1: // cut a window (possibly a truncation)
		at := rng.Intn(len(out))
		end := at + rng.Intn(len(out)-at) + 1
		out = append(out[:at], out[end:]...)
	case 2: // insert extra work
		at := rng.Intn(len(out) + 1)
		ins := randSyms(rng, 5, 1+rng.Intn(4))
		out = append(out[:at], append(append([]string(nil), ins...), out[at:]...)...)
	}
	return out
}
