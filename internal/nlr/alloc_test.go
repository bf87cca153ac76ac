//go:build !race

// The zero-alloc assertions are skipped under the race detector, whose
// instrumentation adds allocations that are not the code's own.

package nlr

import "testing"

// TestExtendPushAllocsNothing pins the in-place extend: once a loop is on
// the stack, a push that only adds an iteration to it allocates nothing —
// no new *Loop, no body copy, no signature.
func TestExtendPushAllocsNothing(t *testing.T) {
	for _, k := range []int{2, DefaultK, 50} {
		s := NewSummarizer(k, nil)
		for i := 0; i < 4; i++ {
			s.Push("MPI_Send")
			s.Push("MPI_Recv")
		}
		if got := Tokens(s.Elements()); len(got) != 1 || got[0] != "L0^4" {
			t.Fatalf("K=%d: warm-up summarized to %v, want [L0^4]", k, got)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			s.Push("MPI_Send")
			s.Push("MPI_Recv")
		}); avg != 0 {
			t.Errorf("K=%d: %.2f allocs per extending iteration, want 0", k, avg)
		}
		if got := Tokens(s.Elements()); len(got) != 1 || got[0] != "L0^1005" {
			t.Fatalf("K=%d: summarized to %v, want [L0^1005]", k, got)
		}
	}
}

// TestRefoldAllocsNothing: re-folding a body the summarizer has
// folded before (an inner loop restarting on every outer iteration) reuses
// the interned body, so a whole outer iteration allocates nothing either.
func TestRefoldAllocsNothing(t *testing.T) {
	s := NewSummarizer(DefaultK, nil)
	iter := func() {
		s.Push("MPI_Barrier")
		for i := 0; i < 5; i++ {
			s.Push("compute")
			s.Push("MPI_Send")
		}
	}
	for i := 0; i < 4; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(500, iter); avg != 0 {
		t.Errorf("%.2f allocs per outer iteration, want 0", avg)
	}
	if got := Tokens(s.Elements()); len(got) != 1 || got[0] != "L1^505" {
		t.Fatalf("summarized to %v, want [L1^505]", got)
	}
}
