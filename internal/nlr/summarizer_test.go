package nlr

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"difftrace/internal/trace"
)

// A sequence returned by Elements is a snapshot: extending a loop in place
// afterwards must not reach the loops already handed out.
func TestElementsSnapshotUnchangedByLaterPushes(t *testing.T) {
	s := NewSummarizer(DefaultK, nil)
	s.Push("init")
	for i := 0; i < 3; i++ {
		s.Push("a")
		s.Push("b")
	}
	snap := s.Elements()
	for i := 0; i < 7; i++ {
		s.Push("a")
		s.Push("b")
	}
	if got := strings.Join(Tokens(snap), " "); got != "init L0^3" {
		t.Fatalf("snapshot changed to %q, want %q", got, "init L0^3")
	}
	if got := ExpandedLen(snap); got != 7 {
		t.Fatalf("snapshot ExpandedLen = %d, want 7", got)
	}
	if got := strings.Join(Tokens(s.Elements()), " "); got != "init L0^10" {
		t.Fatalf("summarizer at %q, want %q", got, "init L0^10")
	}
	s.Finalize()
	if got := strings.Join(Tokens(snap), " "); got != "init L0^3" {
		t.Fatalf("snapshot changed by Finalize to %q", got)
	}
}

// Reset starts a new stream with nothing carried over, whatever the old
// stream left on the stack or in the fold cache.
func TestResetMatchesFreshSummarizer(t *testing.T) {
	streams := [][]string{
		strings.Fields("x a b a b a b c d c d c d y"),
		strings.Fields("a b a b c d c d c d c d a b"),
		strings.Fields("q q q q q r"),
	}
	s := NewSummarizer(3, nil)
	for _, toks := range streams {
		tbl := NewTable()
		s.Reset(3, tbl)
		for _, tok := range toks {
			s.Push(tok)
		}
		s.Finalize()
		want := Summarize(toks, 3, NewTable())
		if got, w := strings.Join(Tokens(s.Elements()), " "), strings.Join(Tokens(want), " "); got != w {
			t.Fatalf("after Reset: %q, want %q", got, w)
		}
	}
}

// A Vocab resolves functions interned after it was built by name, and keeps
// tokens injective on names: an exit of f and a call of a function named
// "ret:f" share one token.
func TestVocabTokens(t *testing.T) {
	reg := trace.NewRegistry()
	f := reg.ID("f")
	retF := reg.ID("ret:f")
	v := NewVocab(reg)
	late := reg.ID("late")

	exitTok, exitName := v.Token(f, trace.Exit)
	callTok, callName := v.Token(retF, trace.Enter)
	if exitName != "ret:f" || callName != "ret:f" || exitTok != callTok {
		t.Fatalf("exit of f = (%d, %q), call of ret:f = (%d, %q); want one token", exitTok, exitName, callTok, callName)
	}
	if fTok, _ := v.Token(f, trace.Enter); fTok == exitTok {
		t.Fatal("call and exit of f share a token")
	}
	lateTok, lateName := v.Token(late, trace.Enter)
	if lateName != "late" {
		t.Fatalf("late function named %q", lateName)
	}
	if again, _ := v.Token(late, trace.Enter); again != lateTok {
		t.Fatalf("late function token unstable: %d then %d", lateTok, again)
	}
	if lateRet, name := v.Token(late, trace.Exit); name != "ret:late" || lateRet == lateTok {
		t.Fatalf("late exit = (%d, %q)", lateRet, name)
	}
	if v.Name(f) != "f" || v.Name(late) != "late" {
		t.Fatalf("Name: %q, %q", v.Name(f), v.Name(late))
	}
}

// saveMidway pushes stream into a summarizer over table and returns the
// elements before Finalize, the stack saved there, and the finalized
// elements.
func saveMidway(stream string, table *Table) (pre []Element, st *Stack, post []Element) {
	s := NewSummarizer(DefaultK, table)
	for _, tok := range strings.Fields(stream) {
		s.Push(tok)
	}
	pre = s.Elements()
	st = s.Save()
	s.Finalize()
	return pre, st, s.Elements()
}

// Restoring a saved stack puts back what the pushes left: Elements gives
// the pre-Finalize sequence, and Finalize then gives what it gave after
// the pushes. The stack is only read, so it restores again.
func TestRestoreGivesPreFinalizeElements(t *testing.T) {
	tbl := NewTable()
	Summarize(strings.Fields("a b a b a b"), DefaultK, tbl) // L0 = [a b]
	pre, st, post := saveMidway("x c c c a b a b y", tbl)
	if got := strings.Join(Tokens(pre), " "); got != "x L1^3 a b a b y" {
		t.Fatalf("before Finalize: %q", got)
	}
	if got := strings.Join(Tokens(post), " "); got != "x L1^3 L0^2 y" {
		t.Fatalf("after Finalize: %q", got)
	}
	r := NewSummarizer(1, nil) // Restore takes the stack's K, not this one
	for i := 0; i < 2; i++ {
		r.Restore(st, tbl)
		if got := r.Elements(); !reflect.DeepEqual(got, pre) {
			t.Fatalf("restore %d: Elements = %v, want %v", i, Tokens(got), Tokens(pre))
		}
		r.Finalize()
		if got := r.Elements(); !reflect.DeepEqual(got, post) {
			t.Fatalf("restore %d: finalized = %v, want %v", i, Tokens(got), Tokens(post))
		}
	}
}

// An empty remap is the identity: the stack keeps every element, loop
// and ID it had.
func TestStackEmptyRemapKeepsStack(t *testing.T) {
	_, st, _ := saveMidway("i a b b b a b b b a b b b c d c d", nil)
	before := slices.Clone(st.entries)
	st.Remap(nil)
	st.Remap(map[int]int{})
	if !slices.Equal(st.entries, before) {
		t.Fatal("an empty remap changed the stack")
	}
}

// Remapping a stack renames what a restore sees, and never what was handed
// out before: Elements taken before Save or after Finalize, and the bodies
// the table holds, keep their IDs at every depth — the snapshot property
// TestElementsSnapshotUnchangedByLaterPushes pins for pushes.
func TestStackRemapLeavesHandedOutElements(t *testing.T) {
	tbl := NewOverlay(NewTable())
	pre, st, post := saveMidway("i a b b b a b b b a b b b c d c d c d", tbl)
	if got := strings.Join(Tokens(pre), " "); got != "i L1^3 L2^3" {
		t.Fatalf("before Finalize: %q", got)
	}
	deep := func(elems []Element) []Element { return RemapElements(elems, map[int]int{-1: -1}) }
	preSnap, postSnap := deep(pre), deep(post)
	bodies := []string{tbl.Describe(0), tbl.Describe(1), tbl.Describe(2)}

	remap := map[int]int{0: 5, 1: 4, 2: 3}
	st.Remap(remap)

	if !reflect.DeepEqual(pre, preSnap) || !reflect.DeepEqual(post, postSnap) {
		t.Fatalf("Remap reached handed-out elements: %v / %v", Tokens(pre), Tokens(post))
	}
	for id, want := range bodies {
		if got := tbl.Describe(id); got != want {
			t.Fatalf("Remap reached table body L%d: %s, want %s", id, got, want)
		}
	}
	r := NewSummarizer(DefaultK, nil)
	r.Restore(st, NewTable())
	if got, want := r.Elements(), RemapElements(pre, remap); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored after Remap: %v, want %v", Tokens(got), Tokens(want))
	}
}
