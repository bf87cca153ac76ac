package parlot

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"difftrace/internal/trace"
)

func buildSet(names ...string) *trace.TraceSet {
	s := trace.NewTraceSet()
	tr := s.Get(trace.TID(0, 0))
	for _, n := range names {
		tr.Append(s.Registry.ID(n), trace.Enter)
		tr.Append(s.Registry.ID(n), trace.Exit)
	}
	return s
}

func TestBinaryRoundTrip(t *testing.T) {
	s := buildSet("main", "MPI_Init", "work", "MPI_Finalize")
	t2 := s.Get(trace.TID(3, 1))
	t2.Append(s.Registry.ID("main"), trace.Enter)
	t2.Truncated = true

	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadSetBinaryContext(nil, &buf, nil, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 2 {
		t.Fatalf("traces = %d", len(got.Traces))
	}
	a := got.Traces[trace.TID(0, 0)]
	if a.Len() != 8 {
		t.Errorf("events = %d", a.Len())
	}
	wantNames := s.Traces[trace.TID(0, 0)].Names(s.Registry)
	gotNames := a.Names(got.Registry)
	if strings.Join(wantNames, ",") != strings.Join(gotNames, ",") {
		t.Errorf("names = %v, want %v", gotNames, wantNames)
	}
	if !got.Traces[trace.TID(3, 1)].Truncated {
		t.Error("truncation flag lost")
	}
}

func TestBinarySharedRegistryAcrossFiles(t *testing.T) {
	// Writing two sets and reading both into one registry keeps IDs
	// aligned — the normal/faulty pairing requirement.
	s1 := buildSet("MPI_Send", "MPI_Recv")
	s2 := buildSet("MPI_Recv", "MPI_Send", "extra")
	var b1, b2 bytes.Buffer
	if err := WriteSetBinary(&b1, s1); err != nil {
		t.Fatal(err)
	}
	if err := WriteSetBinary(&b2, s2); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	g1, _, err := ReadSetBinaryContext(nil, &b1, reg, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadSetBinaryContext(nil, &b2, reg, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id1 := g1.Traces[trace.TID(0, 0)].Events[0].Func
	// find MPI_Send in g2
	var id2 uint32
	for _, e := range g2.Traces[trace.TID(0, 0)].Events {
		if reg.Name(e.Func) == "MPI_Send" {
			id2 = e.Func
			break
		}
	}
	if id1 != id2 {
		t.Errorf("MPI_Send has IDs %d and %d across files", id1, id2)
	}
}

func TestBinaryDenseRemap(t *testing.T) {
	// A registry polluted with unreferenced names must not bloat the file.
	s := buildSet("a")
	for i := 0; i < 1000; i++ {
		s.Registry.ID(strings.Repeat("x", 50) + string(rune('0'+i%10)))
	}
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 200 {
		t.Errorf("file with 1 name is %d bytes — unreferenced names leaked", buf.Len())
	}
}

// TestBinaryBytesIgnoreInternOrder: the same traces, held by two registries
// that interned their names in opposite orders (as two Tracer runs may,
// since a Tracer interns in first-call order), write identical bytes that
// read back to identical traces.
func TestBinaryBytesIgnoreInternOrder(t *testing.T) {
	names := []string{"main", "MPI_Send", "MPI_Recv", "work"}
	calls := []string{"main", "MPI_Recv", "work", "MPI_Send", "MPI_Recv", "main"}
	write := func(internOrder []string) []byte {
		s := trace.NewTraceSet()
		for _, n := range internOrder {
			s.Registry.ID(n)
		}
		for p := 0; p < 2; p++ {
			tr := s.Get(trace.TID(p, 0))
			for _, n := range calls[p:] {
				tr.Append(s.Registry.ID(n), trace.Enter)
				tr.Append(s.Registry.ID(n), trace.Exit)
			}
		}
		var buf bytes.Buffer
		if err := WriteSetBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	a, b := write(names), write(reversed)
	if !bytes.Equal(a, b) {
		t.Fatalf("PLOT1 bytes depend on the registry's intern order:\n%x\n%x", a, b)
	}
	sa, _, err := ReadSetBinaryContext(nil, bytes.NewReader(a), nil, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sb, _, err := ReadSetBinaryContext(nil, bytes.NewReader(b), nil, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ta, tb bytes.Buffer
	if err := trace.WriteSetText(&ta, sa); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSetText(&tb, sb); err != nil {
		t.Fatal(err)
	}
	if ta.Len() == 0 || !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatalf("read-back traces differ:\n%s\n%s", ta.Bytes(), tb.Bytes())
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	// A loopy trace compresses far below the text format.
	s := trace.NewTraceSet()
	tr := s.Get(trace.TID(0, 0))
	for i := 0; i < 5000; i++ {
		tr.Append(s.Registry.ID("CPU_Exec"), trace.Enter)
		tr.Append(s.Registry.ID("CPU_Exec"), trace.Exit)
	}
	var bin, txt bytes.Buffer
	if err := WriteSetBinary(&bin, s); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSetText(&txt, s); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*100 > txt.Len() {
		t.Errorf("binary %d bytes vs text %d bytes — expected >100x smaller", bin.Len(), txt.Len())
	}
}

func TestBinaryCorruptInputs(t *testing.T) {
	good := func() []byte {
		s := buildSet("f")
		var buf bytes.Buffer
		if err := WriteSetBinary(&buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	cases := [][]byte{
		{},                 // empty
		[]byte("NOPE!"),    // bad magic
		good[:len(good)-1], // truncated stream
		good[:6],           // truncated name table
		append([]byte("PLOT1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), // huge name count
	}
	for i, c := range cases {
		if _, _, err := ReadSetBinaryContext(nil, bytes.NewReader(c), nil, trace.ReadOptions{}); err == nil {
			t.Errorf("case %d: corruption accepted", i)
		}
	}
}

// Property: binary round trip preserves every event and flag for arbitrary
// small trace sets.
func TestQuickBinaryRoundTrip(t *testing.T) {
	names := []string{"a", "bb", "MPI_Send", ".plt", "x"}
	f := func(events []uint8, proc, thr uint8, trunc bool) bool {
		s := trace.NewTraceSet()
		tr := s.Get(trace.TID(int(proc)%8, int(thr)%4))
		for _, e := range events {
			tr.Append(s.Registry.ID(names[int(e)%len(names)]), trace.EventKind(e%2))
		}
		tr.Truncated = trunc
		var buf bytes.Buffer
		if err := WriteSetBinary(&buf, s); err != nil {
			return false
		}
		got, _, err := ReadSetBinaryContext(nil, &buf, nil, trace.ReadOptions{})
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
