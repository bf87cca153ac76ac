package faults

import "testing"

func TestNamedPlans(t *testing.T) {
	cases := []struct {
		name    string
		kind    Kind
		process int
	}{
		{"swapBug", SwapSendRecv, 5},
		{"dlBug", DeadlockStop, 5},
		{"ompBug", OmitCritical, 6},
		{"wrongSize", WrongCollectiveSize, 2},
		{"wrongOp", WrongReduceOp, 0},
		{"skipLeapFrog", SkipFunction, 2},
	}
	for _, c := range cases {
		p, err := Named(c.name)
		if err != nil {
			t.Errorf("Named(%s): %v", c.name, err)
			continue
		}
		if len(p.Faults) != 1 || p.Faults[0].Kind != c.kind || p.Faults[0].Process != c.process {
			t.Errorf("Named(%s) = %v", c.name, p)
		}
	}
	if p, err := Named("none"); err != nil || p != nil {
		t.Errorf("Named(none) = %v, %v", p, err)
	}
	if p, err := Named(""); err != nil || p != nil {
		t.Errorf("Named('') = %v, %v", p, err)
	}
	if _, err := Named("bogus"); err == nil {
		t.Error("Named(bogus) accepted")
	}
}

func TestNamedSwapBugMatchesPaper(t *testing.T) {
	p, _ := Named("swapBug")
	// §II-G: rank 5 after the seventh iteration.
	if !p.Active(SwapSendRecv, 5, 0, 7) || p.Active(SwapSendRecv, 5, 0, 6) {
		t.Error("swapBug iteration gate wrong")
	}
	o, _ := Named("ompBug")
	// §IV-B: process 6 thread 4.
	if !o.Active(OmitCritical, 6, 4, 0) || o.Active(OmitCritical, 6, 3, 0) {
		t.Error("ompBug thread gate wrong")
	}
	s, _ := Named("skipLeapFrog")
	if f := s.Find(SkipFunction, 2, 0, 0); f == nil || f.Target != "LagrangeLeapFrog" {
		t.Error("skipLeapFrog target wrong")
	}
}
