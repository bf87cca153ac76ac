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
// so Finalize's known-body rule fires. The first pass is compared stream
// by stream through nlr.Summarize; the second is nlr.SummarizeSet's, which
// restores the stacks its first pass saved instead of pushing again.
func checkPasses(t *testing.T, what string, streams [][]string, k int) {
	t.Helper()
	tbl, ref := nlr.NewTable(), NewTable()
	for i, toks := range streams {
		name := fmt.Sprintf("%s pass 0 stream %d", what, i)
		sameSummary(t, name, nlr.Summarize(toks, k, tbl), Summarize(toks, k, ref))
		sameTable(t, name, tbl, ref)
	}
	checkSet(t, what, tokenSet(streams), k)
}

// checkSet compares nlr.SummarizeSet on set, against a fresh table, with
// two plain reference passes over its traces: every trace's second-pass
// sequence, then the table.
func checkSet(t *testing.T, what string, set *trace.TraceSet, k int) {
	t.Helper()
	tbl, ref := nlr.NewTable(), NewTable()
	got := nlr.SummarizeSet(set, k, tbl)
	for pass := 0; pass < 2; pass++ {
		for _, id := range set.IDs() {
			want := Summarize(eventNames(set, id), k, ref)
			if pass == 1 {
				sameSummary(t, fmt.Sprintf("%s pass 1 trace %s", what, id), got[id], want)
			}
		}
	}
	sameTable(t, what, tbl, ref)
}

// tokenSet makes one trace per stream, process i for stream i, calling
// each token's function.
func tokenSet(streams [][]string) *trace.TraceSet {
	set := trace.NewTraceSet()
	for i, toks := range streams {
		tr := set.Get(trace.TID(i, 0))
		for _, tok := range toks {
			tr.Append(set.Registry.ID(tok), trace.Enter)
		}
	}
	return set
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
		checkSet(t, fmt.Sprintf("K=%d", k), set, k)
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
// remapped, until the table stops growing. Some trials take three rounds,
// so a restore past the round-0 remap is compared too.
func TestEquivOverlayRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	most := 0
	for trial := 0; trial < 40; trial++ {
		k := 1 + rng.Intn(12)
		objs := make([][]string, 2+rng.Intn(6))
		for i := range objs {
			objs[i] = randomStream(rng, 2+rng.Intn(4), 1+rng.Intn(300), 3)
		}
		most = max(most, checkRounds(t, fmt.Sprintf("trial %d K=%d", trial, k), objs, k))
	}
	if most < 3 {
		t.Fatalf("no trial took more than %d rounds", most)
	}
}

// FuzzOverlayRounds: on any 2–4 token streams and window constant, the
// pipeline's rounds agree with the reference's in tokens, expanded lengths
// and loop table. The first seed is shaped like Table III: a body one
// stream repeats twice and another three times, found in round 0 and
// folded in the first stream only from round 1 on.
func FuzzOverlayRounds(f *testing.F) {
	f.Add([]byte("ababxxababab"), uint8(10), uint8(0))
	f.Add([]byte("abcabcaabcabcabc"), uint8(4), uint8(1))
	f.Add([]byte("aabbaabbcaabbaabbaabbdccdccdcc"), uint8(6), uint8(2))
	f.Add([]byte("abababcdcdababcdcdcd"), uint8(2), uint8(5))
	f.Add([]byte(""), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, k, split uint8) {
		objs := make([][]string, 2+int(split)%3)
		for i, b := range data {
			o := i * len(objs) / len(data)
			objs[o] = append(objs[o], string(rune('a'+int(b)%5)))
		}
		checkRounds(t, "fuzz", objs, int(k)%20+1)
	})
}

// checkRounds compares both implementations' rounds over objs and returns
// how many rounds nlr ran.
func checkRounds(t *testing.T, what string, objs [][]string, k int) int {
	t.Helper()
	got, tbl, rounds := nlrRounds(objs, k)
	want, ref := refRounds(objs, k)
	for i := range objs {
		sameSummary(t, fmt.Sprintf("%s object %d", what, i), got[i], want[i])
	}
	sameTable(t, what, tbl, ref)
	return rounds
}

const maxRounds = 4

// nlrRounds runs the rounds as the pipeline does: round 0 pushes each
// object's tokens and saves the stack before Finalize, the round-0 barrier
// renames each stack with its overlay's Absorb remap, and later rounds
// restore the stacks and only finalize them.
func nlrRounds(objs [][]string, k int) ([][]nlr.Element, *nlr.Table, int) {
	table := nlr.NewTable()
	out := make([][]nlr.Element, len(objs))
	stacks := make([]*nlr.Stack, len(objs))
	s := nlr.NewSummarizer(k, nil)
	round := 0
	for prev := -1; round < maxRounds && table.Len() != prev; round++ {
		prev = table.Len()
		overlays := make([]*nlr.Table, len(objs))
		elems := make([][]nlr.Element, len(objs))
		for i, toks := range objs {
			overlays[i] = nlr.NewOverlay(table)
			if round == 0 {
				s.Reset(k, overlays[i])
				for _, tok := range toks {
					s.Push(tok)
				}
				stacks[i] = s.Save()
			} else {
				s.Restore(stacks[i], overlays[i])
			}
			s.Finalize()
			elems[i] = s.Elements()
		}
		for i := range objs {
			remap := table.Absorb(overlays[i])
			out[i] = nlr.RemapElements(elems[i], remap)
			if round == 0 {
				stacks[i].Remap(remap)
			}
		}
	}
	return out, table, round
}

// refRounds re-summarizes every object in full each round.
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
