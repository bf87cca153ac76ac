package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	a := r.ID("MPI_Init")
	b := r.ID("MPI_Send")
	if a == b {
		t.Fatalf("distinct names got same ID %d", a)
	}
	if got := r.ID("MPI_Init"); got != a {
		t.Errorf("re-interning changed ID: %d != %d", got, a)
	}
	if r.Name(a) != "MPI_Init" || r.Name(b) != "MPI_Send" {
		t.Errorf("name round trip failed: %q %q", r.Name(a), r.Name(b))
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if id, ok := r.ids["MPI_Send"]; !ok || id != b {
		t.Errorf("ids[MPI_Send] = %d,%v", id, ok)
	}
	if _, ok := r.ids["nope"]; ok {
		t.Error("absent name interned")
	}
	if got := r.Name(99); got != "?99" {
		t.Errorf("Name(99) = %q, want ?99", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan map[string]uint32, 8)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for g := 0; g < 8; g++ {
		go func() {
			m := map[string]uint32{}
			for i := 0; i < 200; i++ {
				n := names[i%len(names)]
				m[n] = r.ID(n)
			}
			done <- m
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		m := <-done
		if !reflect.DeepEqual(m, first) {
			t.Fatalf("goroutines saw different IDs: %v vs %v", m, first)
		}
	}
	if r.Len() != len(names) {
		t.Errorf("Len = %d, want %d", r.Len(), len(names))
	}
}

func TestTraceCallsFiltersExits(t *testing.T) {
	tr := &Trace{ID: ThreadID{1, 0}}
	tr.Append(7, Enter)
	tr.Append(7, Exit)
	tr.Append(9, Enter)
	got := tr.Calls()
	if !reflect.DeepEqual(got, []uint32{7, 9}) {
		t.Errorf("Calls = %v, want [7 9]", got)
	}
}

func TestTraceClone(t *testing.T) {
	tr := &Trace{ID: ThreadID{2, 3}, Truncated: true}
	tr.Append(1, Enter)
	c := tr.Clone()
	c.Events[0].Func = 42
	c.Append(2, Enter)
	if tr.Events[0].Func != 1 || tr.Len() != 1 {
		t.Error("Clone shares storage with original")
	}
	if !c.Truncated || c.ID != tr.ID {
		t.Error("Clone lost metadata")
	}
}

func TestThreadIDOrderAndString(t *testing.T) {
	a := ThreadID{6, 4}
	if a.String() != "6.4" {
		t.Errorf("String = %q", a.String())
	}
	if !a.Less(ThreadID{7, 0}) || !a.Less(ThreadID{6, 5}) || a.Less(ThreadID{6, 4}) {
		t.Error("Less ordering wrong")
	}
}

func TestTraceSetIDsSorted(t *testing.T) {
	s := NewTraceSet()
	for _, id := range []ThreadID{{3, 1}, {0, 2}, {3, 0}, {0, 0}} {
		s.Get(id)
	}
	ids := s.IDs()
	want := []ThreadID{{0, 0}, {0, 2}, {3, 0}, {3, 1}}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("IDs = %v, want %v", ids, want)
	}
	if got := s.Processes(); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("Processes = %v", got)
	}
}

func TestProcessTraceMergesThreads(t *testing.T) {
	s := NewTraceSet()
	f := s.Registry.ID("f")
	g := s.Registry.ID("g")
	s.Get(ThreadID{1, 0}).Append(f, Enter)
	t1 := s.Get(ThreadID{1, 1})
	t1.Append(g, Enter)
	t1.Truncated = true
	m := s.ProcessTrace(1)
	if m.Len() != 2 || !m.Truncated {
		t.Errorf("merged trace = %d events truncated=%v", m.Len(), m.Truncated)
	}
	if m.Events[0].Func != f || m.Events[1].Func != g {
		t.Error("merge order not by thread")
	}
}

func TestDistinctFuncsAndTotalEvents(t *testing.T) {
	s := NewTraceSet()
	a := s.Registry.ID("a")
	b := s.Registry.ID("b")
	s.Get(ThreadID{0, 0}).Append(a, Enter)
	s.Get(ThreadID{0, 0}).Append(a, Exit)
	s.Get(ThreadID{1, 0}).Append(b, Enter)
	if s.TotalEvents() != 3 {
		t.Errorf("TotalEvents = %d", s.TotalEvents())
	}
	if s.DistinctFuncs() != 2 {
		t.Errorf("DistinctFuncs = %d", s.DistinctFuncs())
	}
}

func TestTextRoundTrip(t *testing.T) {
	s := NewTraceSet()
	tr := s.Get(ThreadID{5, 2})
	tr.Append(s.Registry.ID("main"), Enter)
	tr.Append(s.Registry.ID("MPI_Init"), Enter)
	tr.Append(s.Registry.ID("MPI_Init"), Exit)
	tr.Truncated = true
	s.Get(ThreadID{0, 0}).Append(s.Registry.ID("main"), Enter)

	var buf bytes.Buffer
	if err := WriteSetText(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSetText(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 2 {
		t.Fatalf("read %d traces", len(got.Traces))
	}
	rt := got.Traces[ThreadID{5, 2}]
	if rt == nil || !rt.Truncated || rt.Len() != 3 {
		t.Fatalf("round-tripped trace wrong: %+v", rt)
	}
	if names := rt.Names(got.Registry); !reflect.DeepEqual(names, []string{"main", "MPI_Init"}) {
		t.Errorf("names = %v", names)
	}
	if rt.Events[2].Kind != Exit {
		t.Error("exit event lost")
	}
}

func TestReadSetTextErrors(t *testing.T) {
	cases := []string{
		"call main\n",                  // event before header
		"truncated\n",                  // truncated before header
		"# trace x.y\ncall main\n",     // bad id
		"# trace 0.0\njump main\n",     // bad kind
		"# trace 0.0\nmalformedline\n", // no space
	}
	for _, c := range cases {
		if _, err := ReadSetText(strings.NewReader(c), nil); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestParseThreadID(t *testing.T) {
	id, err := ParseThreadID("6.4")
	if err != nil || id != (ThreadID{6, 4}) {
		t.Errorf("ParseThreadID(6.4) = %v, %v", id, err)
	}
	id, err = ParseThreadID("3")
	if err != nil || id != (ThreadID{3, 0}) {
		t.Errorf("ParseThreadID(3) = %v, %v", id, err)
	}
	if _, err = ParseThreadID("a.b"); err == nil {
		t.Error("expected error for a.b")
	}
	if _, err = ParseThreadID("1.z"); err == nil {
		t.Error("expected error for 1.z")
	}
}

func TestDumpShape(t *testing.T) {
	s := NewTraceSet()
	for p := 0; p < 2; p++ {
		tr := s.Get(ThreadID{p, 0})
		tr.Append(s.Registry.ID("main"), Enter)
		tr.Append(s.Registry.ID("MPI_Init"), Enter)
	}
	out := s.Dump(0)
	if !strings.Contains(out, "T0.0") || !strings.Contains(out, "T1.0") {
		t.Errorf("Dump missing headers:\n%s", out)
	}
	if strings.Count(out, "MPI_Init") != 2 {
		t.Errorf("Dump missing rows:\n%s", out)
	}
	if lines := strings.Count(s.Dump(1), "\n"); lines != 2 {
		t.Errorf("Dump(1) rows = %d, want 2 (header+1)", lines)
	}
}

// Property: text serialization round-trips arbitrary traces.
func TestQuickTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(nEvents uint8, trunc bool) bool {
		s := NewTraceSet()
		tr := s.Get(ThreadID{int(nEvents) % 5, int(nEvents) % 3})
		names := []string{"alpha", "beta_1", "MPI_Send", ".plt", "omp_fn.0"}
		for i := 0; i < int(nEvents); i++ {
			kind := Enter
			if rng.Intn(2) == 0 {
				kind = Exit
			}
			tr.Append(s.Registry.ID(names[rng.Intn(len(names))]), kind)
		}
		tr.Truncated = trunc
		var buf bytes.Buffer
		if err := WriteSetText(&buf, s); err != nil {
			return false
		}
		got, err := ReadSetText(&buf, nil)
		if err != nil {
			return false
		}
		g := got.Traces[tr.ID]
		if g == nil || g.Truncated != trunc || g.Len() != tr.Len() {
			return false
		}
		for i := range g.Events {
			if g.Events[i].Kind != tr.Events[i].Kind {
				return false
			}
			if got.Registry.Name(g.Events[i].Func) != s.Registry.Name(tr.Events[i].Func) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTIDConstructor(t *testing.T) {
	if TID(6, 4) != (ThreadID{Process: 6, Thread: 4}) {
		t.Error("TID wrong")
	}
}

func TestTraceNamesAndSetString(t *testing.T) {
	s := NewTraceSet()
	tr := s.Get(TID(0, 0))
	tr.Append(s.Registry.ID("f"), Enter)
	tr.Append(s.Registry.ID("g"), Enter)
	tr.Append(s.Registry.ID("g"), Exit)
	if got := tr.Names(s.Registry); !reflect.DeepEqual(got, []string{"f", "g"}) {
		t.Errorf("Names = %v", got)
	}
	if s.String() != "TraceSet{1 traces, 3 events}" {
		t.Errorf("String = %q", s.String())
	}
}

func TestPutReplacesTrace(t *testing.T) {
	s := NewTraceSet()
	a := &Trace{ID: TID(1, 1)}
	a.Append(s.Registry.ID("x"), Enter)
	s.Put(a)
	b := &Trace{ID: TID(1, 1)}
	s.Put(b)
	if s.Traces[TID(1, 1)].Len() != 0 {
		t.Error("Put did not replace")
	}
}

func TestWriteTextErrorPropagates(t *testing.T) {
	s := NewTraceSet()
	tr := s.Get(TID(0, 0))
	tr.Append(s.Registry.ID("f"), Enter)
	tr.Truncated = true
	if err := WriteText(failingWriter{}, tr, s.Registry); err == nil {
		t.Error("write error swallowed")
	}
	if err := WriteSetText(failingWriter{}, s); err == nil {
		t.Error("set write error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("sink closed")
