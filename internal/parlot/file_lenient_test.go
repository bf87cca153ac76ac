package parlot

import (
	"bytes"
	"testing"

	"difftrace/internal/resilience"
	"difftrace/internal/trace"
)

func lenientOpts() trace.ReadOptions { return trace.ReadOptions{Mode: trace.Lenient} }

func binAccounting(t *testing.T, s *trace.TraceSet, rep *resilience.IngestReport) {
	t.Helper()
	if got, want := s.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
		t.Errorf("accounting: TotalEvents %d != kept %d + synthesized %d", got, rep.EventsKept, rep.EventsSynthesized)
	}
}

func encodeSet(t *testing.T, s *trace.TraceSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Lenient round trip of a clean file is lossless with a clean report.
func TestBinaryLenientCleanRoundTrip(t *testing.T) {
	s := buildSet("main", "MPI_Init", "work")
	tr := s.Get(trace.TID(3, 1))
	tr.Append(s.Registry.ID("main"), trace.Enter)
	tr.Truncated = true
	data := encodeSet(t, s)

	got, rep, err := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, lenientOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("clean file produced salvage report:\n%s", rep.Render())
	}
	if got.TotalEvents() != s.TotalEvents() || !got.Traces[trace.TID(3, 1)].Truncated {
		t.Errorf("round trip lost data: %v", got)
	}
	binAccounting(t, got, rep)
}

// Truncating the file mid-stream keeps every fully decoded trace plus the
// salvageable prefix of the interrupted one.
func TestBinaryLenientTruncatedFile(t *testing.T) {
	s := buildSet("alpha", "beta", "gamma", "delta", "epsilon")
	data := encodeSet(t, s)

	for cut := len(data) - 1; cut > len(Magic); cut /= 2 {
		got, rep, err := ReadSetBinaryContext(nil, bytes.NewReader(data[:cut]), nil, lenientOpts())
		if err != nil {
			t.Fatalf("cut=%d: lenient returned error: %v", cut, err)
		}
		binAccounting(t, got, rep)
		if rep.Clean() {
			t.Errorf("cut=%d: truncation not reported", cut)
		}
	}

	// Strict mode must keep failing on the same inputs.
	if _, _, err := ReadSetBinaryContext(nil, bytes.NewReader(data[:len(data)-1]), nil, trace.ReadOptions{}); err == nil {
		t.Error("strict mode accepted a truncated file")
	}
}

// Corrupting one trace's compressed bytes salvages its decodable prefix and
// resyncs on the next trace via the length framing.
func TestBinaryLenientCorruptStreamResync(t *testing.T) {
	s := trace.NewTraceSet()
	t0 := s.Get(trace.TID(0, 0))
	t1 := s.Get(trace.TID(1, 0))
	for i := 0; i < 20; i++ {
		t0.Append(s.Registry.ID("f"), trace.Enter)
		t0.Append(s.Registry.ID("f"), trace.Exit)
		t1.Append(s.Registry.ID("g"), trace.Enter)
		t1.Append(s.Registry.ID("g"), trace.Exit)
	}
	data := encodeSet(t, s)

	// Find trace 1.0's stream and stomp bytes inside trace 0.0's stream
	// (just after the name table; flip a mid-file byte region that belongs
	// to the first compressed stream). Locate it by scanning for where
	// corruption changes only trace 0.0's decode: flip bytes from the
	// middle of the file backwards until trace 1.0 still reads fully.
	corrupt := append([]byte(nil), data...)
	// The last ~quarter of the file is trace 1.0's record; corrupt a byte
	// well before it but after the header area.
	pos := len(data)/2 - 4
	corrupt[pos] ^= 0xff
	corrupt[pos+1] ^= 0xff

	got, rep, err := ReadSetBinaryContext(nil, bytes.NewReader(corrupt), nil, lenientOpts())
	if err != nil {
		t.Fatalf("lenient returned error: %v", err)
	}
	binAccounting(t, got, rep)
	if got.TotalEvents() == 0 {
		t.Error("corruption of one stream wiped every trace")
	}
}

// Event and trace caps degrade with reasons instead of failing.
func TestBinaryLenientCaps(t *testing.T) {
	s := trace.NewTraceSet()
	for p := 0; p < 4; p++ {
		tr := s.Get(trace.TID(p, 0))
		for i := 0; i < 10; i++ {
			tr.Append(s.Registry.ID("f"), trace.Enter)
			tr.Append(s.Registry.ID("f"), trace.Exit)
		}
	}
	data := encodeSet(t, s)

	got, rep, err := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{
		Mode: trace.Lenient, MaxEventsPerTrace: 5, MaxTraces: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Traces) != 2 {
		t.Errorf("traces = %d, want 2", len(got.Traces))
	}
	for id, tr := range got.Traces {
		if tr.Len() != 5 || !tr.Truncated {
			t.Errorf("trace %s: len %d truncated %v", id, tr.Len(), tr.Truncated)
		}
	}
	binAccounting(t, got, rep)

	// Strict mode errors descriptively on the same caps.
	if _, _, err := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{MaxEventsPerTrace: 5}); err == nil {
		t.Error("strict MaxEventsPerTrace accepted")
	}
	if _, _, err := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{MaxTraces: 2}); err == nil {
		t.Error("strict MaxTraces accepted")
	}
}

// Garbage that is not even a ParLOT file yields an empty set plus a
// quarantine record, never an error, in lenient mode.
func TestBinaryLenientGarbageFile(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("PLO"), []byte("nonsense"), []byte("PLOT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")} {
		got, rep, err := ReadSetBinaryContext(nil, bytes.NewReader(in), nil, lenientOpts())
		if err != nil {
			t.Errorf("input %q: lenient error %v", in, err)
		}
		if got == nil || rep.Clean() {
			t.Errorf("input %q: expected quarantine record", in)
		}
		binAccounting(t, got, rep)
	}
}
