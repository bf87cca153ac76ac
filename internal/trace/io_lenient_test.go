package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"difftrace/internal/resilience"
)

// wellFormedSet builds a realistic set: a balanced trace, a second thread,
// and a deadlock-style Truncated trace whose tail rets never happened.
func wellFormedSet() *TraceSet {
	s := NewTraceSet()
	t0 := s.Get(TID(0, 0))
	for _, n := range []string{"main", "MPI_Init"} {
		t0.Append(s.Registry.ID(n), Enter)
	}
	t0.Append(s.Registry.ID("MPI_Init"), Exit)
	t0.Append(s.Registry.ID("main"), Exit)

	t1 := s.Get(TID(1, 2))
	t1.Append(s.Registry.ID("main"), Enter)
	t1.Append(s.Registry.ID("MPI_Recv"), Enter) // never returns: deadlock
	t1.Truncated = true
	return s
}

func sameSet(t *testing.T, want, got *TraceSet) {
	t.Helper()
	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("trace count %d != %d", len(got.Traces), len(want.Traces))
	}
	for id, w := range want.Traces {
		g := got.Traces[id]
		if g == nil {
			t.Fatalf("trace %s missing", id)
		}
		if g.Truncated != w.Truncated || g.Len() != w.Len() {
			t.Fatalf("trace %s: truncated=%v len=%d, want truncated=%v len=%d",
				id, g.Truncated, g.Len(), w.Truncated, w.Len())
		}
		for i := range g.Events {
			if g.Events[i].Kind != w.Events[i].Kind ||
				got.Registry.Name(g.Events[i].Func) != want.Registry.Name(w.Events[i].Func) {
				t.Fatalf("trace %s event %d differs", id, i)
			}
		}
	}
}

// Round trip must be lossless in both modes for well-formed sets (including
// Truncated traces), and the lenient IngestReport must be clean.
func TestRoundTripLosslessBothModes(t *testing.T) {
	want := wellFormedSet()
	var buf bytes.Buffer
	if err := WriteSetText(&buf, want); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ReadMode{Strict, Lenient} {
		got, rep, err := ReadSetTextContext(nil, bytes.NewReader(buf.Bytes()), nil, ReadOptions{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sameSet(t, want, got)
		if !rep.Clean() {
			t.Errorf("%v: report not clean:\n%s", mode, rep.Render())
		}
		if rep.EventsKept != want.TotalEvents() || rep.EventsSynthesized != 0 {
			t.Errorf("%v: kept %d synth %d, want kept %d synth 0",
				mode, rep.EventsKept, rep.EventsSynthesized, want.TotalEvents())
		}
	}
}

// accounting asserts the invariant every lenient read must uphold.
func accounting(t *testing.T, s *TraceSet, rep *resilience.IngestReport) {
	t.Helper()
	if got, want := s.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
		t.Errorf("accounting: TotalEvents %d != kept %d + synthesized %d", got, rep.EventsKept, rep.EventsSynthesized)
	}
}

func TestLenientMalformedLineSalvage(t *testing.T) {
	in := "# trace 0.0\ncall main\n@@@garbage@@@\ncall MPI_Init\njump nowhere\nret MPI_Init\n"
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces[TID(0, 0)]
	if tr == nil || !tr.Truncated {
		t.Fatal("corruption-affected trace must be marked Truncated")
	}
	// main, MPI_Init, ret MPI_Init kept; auto-close synthesizes ret main.
	if got := tr.Names(s.Registry); !reflect.DeepEqual(got, []string{"main", "MPI_Init"}) {
		t.Errorf("calls = %v", got)
	}
	last := tr.Events[len(tr.Events)-1]
	if last.Kind != Exit || s.Registry.Name(last.Func) != "main" {
		t.Errorf("auto-close missing: last event %v %s", last.Kind, s.Registry.Name(last.Func))
	}
	rec := rep.Record("0.0")
	if rec == nil || rec.Dropped != 2 || rec.Synthesized != 1 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Reasons[resilience.MalformedEvent] != 1 || rec.Reasons[resilience.UnknownKind] != 1 {
		t.Errorf("reasons = %v", rec.Reasons)
	}
	accounting(t, s, rep)
}

func TestLenientGarbageHeaderQuarantine(t *testing.T) {
	in := "# trace 0.0\ncall main\n# trace x.y\ncall ghost\nret ghost\n# trace 1.0\ncall main\n"
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Traces) != 2 {
		t.Fatalf("traces = %d, want 2 (ghost quarantined)", len(s.Traces))
	}
	if _, ok := s.Registry.Lookup("ghost"); ok {
		t.Error("quarantined events must not intern names")
	}
	rec := rep.Record("?")
	if rec == nil || !rec.Quarantined || rec.Dropped != 2 {
		t.Fatalf("quarantine record = %+v", rec)
	}
	if rec.Reasons[resilience.BadHeader] != 3 { // 1 header + 2 events
		t.Errorf("reasons = %v", rec.Reasons)
	}
	accounting(t, s, rep)
}

func TestLenientOrphansBeforeHeader(t *testing.T) {
	in := "call early\ntruncated\n# trace 0.0\ncall main\nret main\n"
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	if s.Traces[TID(0, 0)].Len() != 2 {
		t.Errorf("surviving trace len = %d", s.Traces[TID(0, 0)].Len())
	}
	if rep.Record("?").Reasons[resilience.OrphanEvent] != 2 {
		t.Errorf("orphan tally = %v", rep.Record("?").Reasons)
	}
	accounting(t, s, rep)
}

func TestLenientUnbalancedRetDropped(t *testing.T) {
	in := "# trace 0.0\nret NoSuchCall\ncall main\nret main\n"
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces[TID(0, 0)]
	if tr.Len() != 2 {
		t.Fatalf("events = %d, want orphan ret dropped", tr.Len())
	}
	if rep.Record("0.0").Reasons[resilience.UnbalancedRet] != 1 {
		t.Errorf("reasons = %v", rep.Record("0.0").Reasons)
	}
	accounting(t, s, rep)
}

// A trace with the explicit "truncated" marker is never auto-closed, even
// when salvage dropped lines from it: its unbalanced stack is real data.
func TestLenientNoAutoCloseOnMarkedTruncated(t *testing.T) {
	in := "# trace 3.0\ncall main\ncall MPI_Recv\n@@@garbage@@@\ntruncated\n"
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces[TID(3, 0)]
	if tr.Len() != 2 || !tr.Truncated {
		t.Fatalf("trace = %+v", tr)
	}
	if rep.EventsSynthesized != 0 {
		t.Errorf("synthesized %d events into an explicitly truncated trace", rep.EventsSynthesized)
	}
	accounting(t, s, rep)
}

func TestMaxLineBytes(t *testing.T) {
	long := strings.Repeat("x", 4096)
	in := "# trace 0.0\ncall main\ncall " + long + "\nret main\n"

	// Strict: descriptive error naming line and trace.
	_, _, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{MaxLineBytes: 256})
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "trace 0.0") {
		t.Fatalf("strict oversize error = %v", err)
	}

	// Lenient: line dropped, scan continues, trace marked Truncated.
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient, MaxLineBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces[TID(0, 0)]
	if tr == nil || !tr.Truncated {
		t.Fatal("trace with oversized line must be marked Truncated")
	}
	if rep.Record("0.0").Reasons[resilience.LineTooLong] != 1 {
		t.Errorf("reasons = %v", rep.Record("0.0").Reasons)
	}
	// The ret after the oversized line must still be seen (scan continued):
	// call main kept, ret main balances it, oversized call dropped.
	if tr.Len() != 2 {
		t.Errorf("events = %d, want 2 (scan must survive the long line)", tr.Len())
	}
	accounting(t, s, rep)
}

// Oversized lines spanning many buffer fills never allocate the whole line.
func TestMaxLineBytesHugeLine(t *testing.T) {
	var b strings.Builder
	b.WriteString("# trace 0.0\ncall ")
	for i := 0; i < 1<<20/16; i++ {
		b.WriteString("0123456789abcdef") // 1 MiB name
	}
	b.WriteString("\ncall main\n")
	s, rep, err := ReadSetTextContext(nil, strings.NewReader(b.String()), nil, ReadOptions{Mode: Lenient, MaxLineBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Traces[TID(0, 0)].Calls(); len(got) == 0 || s.Registry.Name(got[len(got)-1]) != "main" {
		t.Errorf("events after huge line lost: %v", got)
	}
	accounting(t, s, rep)
}

func TestMaxEventsPerTrace(t *testing.T) {
	var b strings.Builder
	b.WriteString("# trace 0.0\n")
	for i := 0; i < 10; i++ {
		b.WriteString("call f\nret f\n")
	}
	in := b.String()

	_, _, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{MaxEventsPerTrace: 5})
	if err == nil || !strings.Contains(err.Error(), "MaxEventsPerTrace") {
		t.Fatalf("strict cap error = %v", err)
	}

	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient, MaxEventsPerTrace: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Traces[TID(0, 0)]
	// 5 kept + possible auto-close synthetics; never more than 6.
	if tr.Len() < 5 || !tr.Truncated {
		t.Fatalf("capped trace = len %d truncated %v", tr.Len(), tr.Truncated)
	}
	if rep.Record("0.0").Reasons[resilience.EventCap] != 15 {
		t.Errorf("reasons = %v", rep.Record("0.0").Reasons)
	}
	accounting(t, s, rep)
}

func TestMaxTraces(t *testing.T) {
	in := "# trace 0.0\ncall a\n# trace 1.0\ncall b\n# trace 2.0\ncall c\nret c\n# trace 0.0\ncall d\n"

	_, _, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{MaxTraces: 2})
	if err == nil || !strings.Contains(err.Error(), "MaxTraces") {
		t.Fatalf("strict cap error = %v", err)
	}

	s, rep, err := ReadSetTextContext(nil, strings.NewReader(in), nil, ReadOptions{Mode: Lenient, MaxTraces: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(s.Traces))
	}
	// Re-opening an existing trace (0.0) after the cap still works.
	if got := s.Traces[TID(0, 0)].Len(); got != 2 {
		t.Errorf("trace 0.0 events = %d, want 2 (cap must not block existing traces)", got)
	}
	rec := rep.Record("2.0")
	if rec == nil || !rec.Quarantined || rec.Reasons[resilience.TraceCap] != 1 {
		t.Fatalf("trace-cap record = %+v", rec)
	}
	accounting(t, s, rep)
}

func TestStrictMatchesLegacyErrors(t *testing.T) {
	cases := []string{
		"call main\n",
		"truncated\n",
		"# trace x.y\ncall main\n",
		"# trace 0.0\njump main\n",
		"# trace 0.0\nmalformedline\n",
	}
	for _, c := range cases {
		if _, err := ReadSetText(strings.NewReader(c), nil); err == nil {
			t.Errorf("input %q: expected strict error", c)
		}
	}
}
