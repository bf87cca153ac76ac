// Differential equivalence suite: the candidate-driven, integer-keyed
// nlr.Summarizer must produce exactly what the frozen string-keyed
// reference produces — the same tokens, the same expanded lengths and the
// same loop table, body for body — on random token streams, on
// internal/synth traces, on traces with exits fed through nlr.Vocab, and
// on multi-object overlay rounds merged with Absorb the way the pipeline
// merges them. Everything is compared through rendered output, never
// through representation internals.
package reftest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"difftrace/internal/nlr"
	"difftrace/internal/synth"
	"difftrace/internal/trace"
)

// sameSummary fails t unless got (nlr) and want (reference) render the same
// tokens and expand to the same length.
func sameSummary(t *testing.T, what string, got []nlr.Element, want []Element) {
	t.Helper()
	g, w := strings.Join(nlr.Tokens(got), " "), strings.Join(Tokens(want), " ")
	if g != w {
		t.Fatalf("%s: tokens\n  nlr: %s\n  ref: %s", what, g, w)
	}
	if gl, wl := nlr.ExpandedLen(got), ExpandedLen(want); gl != wl {
		t.Fatalf("%s: ExpandedLen nlr %d != ref %d", what, gl, wl)
	}
}

// sameTable fails t unless both tables hold the same bodies under the same
// IDs.
func sameTable(t *testing.T, what string, got *nlr.Table, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: table size nlr %d != ref %d", what, got.Len(), want.Len())
	}
	for id := 0; id < want.Len(); id++ {
		if g, w := got.Describe(id), want.Describe(id); g != w {
			t.Fatalf("%s: L%d body nlr %s != ref %s", what, id, g, w)
		}
	}
}

// checkPasses summarizes every stream twice into one shared table per
// implementation — the second pass sees the bodies the first discovered,
// so Finalize's known-body rule fires — comparing each pass.
func checkPasses(t *testing.T, what string, streams [][]string, k int) {
	t.Helper()
	tbl, ref := nlr.NewTable(), NewTable()
	for pass := 0; pass < 2; pass++ {
		for i, toks := range streams {
			name := fmt.Sprintf("%s pass %d stream %d", what, pass, i)
			sameSummary(t, name, nlr.Summarize(toks, k, tbl), Summarize(toks, k, ref))
			sameTable(t, name, tbl, ref)
		}
	}
}

// randomStream draws a token stream over an alphabet of size alpha: random
// symbols interleaved with chunks repeated a random number of times, nested
// up to depth levels, so loops of every shape (and near-misses) occur.
func randomStream(rng *rand.Rand, alpha, length, depth int) []string {
	var out []string
	for len(out) < length {
		switch r := rng.Intn(4); {
		case r == 0 || depth == 0:
			out = append(out, string(rune('a'+rng.Intn(alpha))))
		default:
			chunk := randomStream(rng, alpha, 1+rng.Intn(6), depth-1)
			for reps := 1 + rng.Intn(6); reps > 0; reps-- {
				out = append(out, chunk...)
			}
		}
	}
	return out[:length]
}

func TestEquivRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for alpha := 1; alpha <= 6; alpha++ {
		for k := 1; k <= 20; k++ {
			var streams [][]string
			for i := 0; i < 4; i++ {
				streams = append(streams, randomStream(rng, alpha, 1+rng.Intn(400), 3))
			}
			checkPasses(t, fmt.Sprintf("alpha=%d K=%d", alpha, k), streams, k)
		}
	}
}

func TestEquivSynthTraces(t *testing.T) {
	cfgs := []synth.Config{
		{Prologue: 2, Epilogue: 1, Loops: []synth.LoopSpec{{Body: 3, Iterations: 40}}},
		{Prologue: 1, Loops: []synth.LoopSpec{{Body: 2, Iterations: 12, Nested: &synth.LoopSpec{Body: 1, Iterations: 7}}}},
		{Loops: []synth.LoopSpec{
			{Body: 2, Iterations: 5, Nested: &synth.LoopSpec{Body: 2, Iterations: 3, Nested: &synth.LoopSpec{Body: 1, Iterations: 4}}},
			{Body: 4, Iterations: 9},
		}},
		{Loops: []synth.LoopSpec{{Body: 5, Iterations: 30}}, NoiseRate: 0.05, NoisePool: 3, Seed: 7},
		{Loops: []synth.LoopSpec{{Body: 2, Iterations: 50, Nested: &synth.LoopSpec{Body: 3, Iterations: 2}}}, NoiseRate: 0.2, NoisePool: 2, Seed: 11},
		{Loops: []synth.LoopSpec{{Body: 12, Iterations: 6}}, TruncateAfter: 50},
	}
	for _, k := range []int{1, 2, 3, 5, 10, 20} {
		var streams [][]string
		for _, cfg := range cfgs {
			streams = append(streams, synth.Tokens(cfg))
		}
		checkPasses(t, fmt.Sprintf("synth K=%d", k), streams, k)
	}
}

// Events with exits go through nlr.Vocab and PushToken; the reference gets
// the rendered names. A function literally named "ret:b" must share its
// token with b's exit, exactly as the names compare.
func TestEquivVocabWithExits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 3, 10} {
		set := trace.NewTraceSet()
		names := []string{"a", "b", "ret:b", "c"}
		for p := 0; p < 3; p++ {
			tr := set.Get(trace.TID(p, 0))
			for _, s := range randomStream(rng, 8, 300, 3) {
				c := int(s[0] - 'a')
				tr.Append(set.Registry.ID(names[c%4]), trace.EventKind(c/4))
			}
		}
		tbl, ref := nlr.NewTable(), NewTable()
		got := nlr.SummarizeSet(set, k, tbl)
		for pass := 0; pass < 2; pass++ {
			for _, id := range set.IDs() {
				want := Summarize(eventNames(set, id), k, ref)
				if pass == 1 {
					sameSummary(t, fmt.Sprintf("K=%d trace %s", k, id), got[id], want)
				}
			}
		}
		sameTable(t, fmt.Sprintf("K=%d", k), tbl, ref)
	}
}

func eventNames(set *trace.TraceSet, id trace.ThreadID) []string {
	var out []string
	for _, e := range set.Traces[id].Events {
		name := set.Registry.Name(e.Func)
		if e.Kind == trace.Exit {
			name = "ret:" + name
		}
		out = append(out, name)
	}
	return out
}

// TestEquivOverlayRounds replays the pipeline's summarization fixpoint on
// both implementations: every object against a private overlay of the
// shared table, overlays absorbed in canonical order with their sequences
// remapped, until the table stops growing.
func TestEquivOverlayRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(12)
		objs := make([][]string, 2+rng.Intn(6))
		for i := range objs {
			objs[i] = randomStream(rng, 2+rng.Intn(4), 1+rng.Intn(300), 3)
		}
		got, tbl := nlrRounds(objs, k)
		want, ref := refRounds(objs, k)
		what := fmt.Sprintf("trial %d K=%d", trial, k)
		for i := range objs {
			sameSummary(t, fmt.Sprintf("%s object %d", what, i), got[i], want[i])
		}
		sameTable(t, what, tbl, ref)
	}
}

const maxRounds = 4

func nlrRounds(objs [][]string, k int) ([][]nlr.Element, *nlr.Table) {
	table := nlr.NewTable()
	out := make([][]nlr.Element, len(objs))
	for round, prev := 0, -1; round < maxRounds && table.Len() != prev; round++ {
		prev = table.Len()
		overlays := make([]*nlr.Table, len(objs))
		elems := make([][]nlr.Element, len(objs))
		for i, toks := range objs {
			overlays[i] = nlr.NewOverlay(table)
			elems[i] = nlr.Summarize(toks, k, overlays[i])
		}
		for i := range objs {
			out[i] = nlr.RemapElements(elems[i], table.Absorb(overlays[i]))
		}
	}
	return out, table
}

func refRounds(objs [][]string, k int) ([][]Element, *Table) {
	table := NewTable()
	out := make([][]Element, len(objs))
	for round, prev := 0, -1; round < maxRounds && table.Len() != prev; round++ {
		prev = table.Len()
		overlays := make([]*Table, len(objs))
		elems := make([][]Element, len(objs))
		for i, toks := range objs {
			overlays[i] = NewOverlay(table)
			elems[i] = Summarize(toks, k, overlays[i])
		}
		for i := range objs {
			out[i] = RemapElements(elems[i], table.Absorb(overlays[i]))
		}
	}
	return out, table
}

// FuzzSummarizeReference: on any token stream and window constant, two
// passes into a shared table (the second exercising the known-body rule)
// agree with the reference in tokens, expanded length and loop table.
func FuzzSummarizeReference(f *testing.F) {
	f.Add([]byte("abcabcabc"), uint8(10))
	f.Add([]byte(""), uint8(1))
	f.Add([]byte("aaaaaaaaaaaaaaaa"), uint8(3))
	f.Add([]byte("ababababcdcdcdcdabab"), uint8(2))
	f.Add([]byte("aabbaabbaabbccddccdd"), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		toks := make([]string, len(data))
		for i, b := range data {
			toks[i] = string(rune('a' + int(b)%5))
		}
		checkPasses(t, "fuzz", [][]string{toks}, int(k)%20+1)
	})
}
