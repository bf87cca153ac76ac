package nlr

import (
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
