package diff

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// Apply reconstructs b from a and the edit script; used to verify scripts.
func Apply(a []string, edits []Edit) ([]string, error) {
	var out []string
	i := 0
	for _, e := range edits {
		switch e.Op {
		case Equal:
			for _, tok := range e.Tokens {
				if i >= len(a) || a[i] != tok {
					return nil, fmt.Errorf("diff: equal token %q does not match a[%d]", tok, i)
				}
				out = append(out, tok)
				i++
			}
		case Delete:
			for _, tok := range e.Tokens {
				if i >= len(a) || a[i] != tok {
					return nil, fmt.Errorf("diff: delete token %q does not match a[%d]", tok, i)
				}
				i++
			}
		case Insert:
			out = append(out, e.Tokens...)
		}
	}
	if i != len(a) {
		return nil, fmt.Errorf("diff: script consumed %d of %d tokens of a", i, len(a))
	}
	return out, nil
}

func apply(t *testing.T, a []string, edits []Edit) []string {
	t.Helper()
	got, err := Apply(a, edits)
	if err != nil {
		t.Fatalf("Apply: %v (script %v)", err, edits)
	}
	return got
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIdenticalSequences(t *testing.T) {
	a := []string{"x", "y", "z"}
	edits := Diff(a, a)
	if len(edits) != 1 || edits[0].Op != Equal || !reflect.DeepEqual(edits[0].Tokens, a) {
		t.Fatalf("edits = %v", edits)
	}
	if Distance(edits) != 0 {
		t.Errorf("distance = %d", Distance(edits))
	}
}

func TestEmptySequences(t *testing.T) {
	if edits := Diff(nil, nil); len(edits) != 0 {
		t.Errorf("Diff(nil,nil) = %v", edits)
	}
	edits := Diff(nil, []string{"a", "b"})
	if len(edits) != 1 || edits[0].Op != Insert || Distance(edits) != 2 {
		t.Errorf("insert-only = %v", edits)
	}
	edits = Diff([]string{"a", "b"}, nil)
	if len(edits) != 1 || edits[0].Op != Delete || Distance(edits) != 2 {
		t.Errorf("delete-only = %v", edits)
	}
}

func TestClassicMyersExample(t *testing.T) {
	// ABCABBA -> CBABAC, the worked example in Myers' paper: distance 5.
	a := []string{"A", "B", "C", "A", "B", "B", "A"}
	b := []string{"C", "B", "A", "B", "A", "C"}
	edits := Diff(a, b)
	if d := Distance(edits); d != 5 {
		t.Errorf("distance = %d, want 5 (script %v)", d, edits)
	}
	if got := apply(t, a, edits); !eq(got, b) {
		t.Errorf("Apply = %v, want %v", got, b)
	}
}

func TestSwapBugFigure5(t *testing.T) {
	// Figure 5b: normal L1^16 vs faulty L1^7 L0^9 around a shared prologue
	// and epilogue.
	a := []string{"MPI_Init", "MPI_Comm_Rank", "L1^16", "MPI_Finalize"}
	b := []string{"MPI_Init", "MPI_Comm_Rank", "L1^7", "L0^9", "MPI_Finalize"}
	edits := Diff(a, b)
	if got := apply(t, a, edits); !eq(got, b) {
		t.Fatalf("Apply mismatch: %v", got)
	}
	// Shape: = (prologue), - L1^16, + L1^7 L0^9, = finalize.
	want := []Edit{
		{Equal, []string{"MPI_Init", "MPI_Comm_Rank"}},
		{Delete, []string{"L1^16"}},
		{Insert, []string{"L1^7", "L0^9"}},
		{Equal, []string{"MPI_Finalize"}},
	}
	if !reflect.DeepEqual(edits, want) {
		t.Errorf("edits = %v, want %v", edits, want)
	}
}

func TestDeadlockFigure6(t *testing.T) {
	// Figure 6: faulty trace truncated — missing MPI_Finalize entirely.
	a := []string{"MPI_Init", "L1^16", "MPI_Finalize"}
	b := []string{"MPI_Init", "L1^7"}
	edits := Diff(a, b)
	if got := apply(t, a, edits); !eq(got, b) {
		t.Fatalf("Apply mismatch: %v", got)
	}
	last := edits[len(edits)-1]
	if last.Op == Equal {
		t.Errorf("truncated diff should not end on an equal run: %v", edits)
	}
}

func TestRunsAreMaximalAndAlternate(t *testing.T) {
	a := []string{"a", "b", "c", "d", "e"}
	b := []string{"a", "x", "c", "y", "e"}
	edits := Diff(a, b)
	for i := 1; i < len(edits); i++ {
		if edits[i].Op == edits[i-1].Op {
			t.Fatalf("adjacent runs share op: %v", edits)
		}
	}
	for _, e := range edits {
		if len(e.Tokens) == 0 {
			t.Fatalf("empty run in %v", edits)
		}
	}
}

func TestApplyRejectsWrongScript(t *testing.T) {
	if _, err := Apply([]string{"a"}, []Edit{{Equal, []string{"b"}}}); err == nil {
		t.Error("mismatched equal token accepted")
	}
	if _, err := Apply([]string{"a"}, []Edit{{Delete, []string{"b"}}}); err == nil {
		t.Error("mismatched delete token accepted")
	}
	if _, err := Apply([]string{"a", "b"}, []Edit{{Equal, []string{"a"}}}); err == nil {
		t.Error("underconsumed input accepted")
	}
}

func TestOpString(t *testing.T) {
	if Equal.String() != "=" || Delete.String() != "-" || Insert.String() != "+" {
		t.Error("Op strings wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render something")
	}
}

// Property 1: applying the script to a always yields b.
func TestQuickDiffApply(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a := toTokens(ra)
		b := toTokens(rb)
		got, err := Apply(a, Diff(a, b))
		return err == nil && eq(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property 2: distance is symmetric and zero iff equal.
func TestQuickDistanceSymmetric(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a := toTokens(ra)
		b := toTokens(rb)
		dab := Distance(Diff(a, b))
		dba := Distance(Diff(b, a))
		if dab != dba {
			return false
		}
		if eq(a, b) != (dab == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property 3: distance obeys the LCS relation d = len(a)+len(b)-2*|LCS|,
// so it never exceeds len(a)+len(b) and has matching parity.
func TestQuickDistanceBounds(t *testing.T) {
	f := func(ra, rb []uint8) bool {
		a := toTokens(ra)
		b := toTokens(rb)
		d := Distance(Diff(a, b))
		if d > len(a)+len(b) || d < 0 {
			return false
		}
		return (d-(len(a)+len(b)))%2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func toTokens(raw []uint8) []string {
	out := make([]string, len(raw))
	for i, r := range raw {
		out[i] = string(rune('a' + int(r)%4))
	}
	return out
}

func BenchmarkDiffSimilar(b *testing.B) {
	a := make([]string, 2000)
	bb := make([]string, 2000)
	for i := range a {
		a[i] = string(rune('a' + i%7))
		bb[i] = a[i]
	}
	bb[500] = "X"
	bb[1500] = "Y"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Diff(a, bb)
	}
}
