package parlot

import (
	"bytes"
	"math/rand" //lint:allow wallclock differential tests use caller-seeded rngs; every run replays byte-identically from the seed
	"testing"

	"difftrace/internal/resilience/chaos"
	"difftrace/internal/trace"
)

// renderSet serializes a set to the text format for byte comparison
// (captures IDs, order, names, kinds, and truncation flags).
func renderSet(t *testing.T, s *trace.TraceSet) string {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteSetText(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// requireStreamMatchesBatch reads data both ways under opts and asserts the
// streaming path reproduces the batch path exactly: same traces (via
// Materialize), same totals, and the same ingest report rendering.
func requireStreamMatchesBatch(t *testing.T, data []byte, opts trace.ReadOptions) {
	t.Helper()
	bSet, bRep, bErr := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, opts)
	ss, sRep, sErr := ReadStreamSetContext(nil, bytes.NewReader(data), nil, opts)
	if (bErr == nil) != (sErr == nil) {
		t.Fatalf("error divergence: batch %v, stream %v", bErr, sErr)
	}
	if bErr != nil {
		if bErr.Error() != sErr.Error() {
			t.Fatalf("error text divergence: batch %q, stream %q", bErr, sErr)
		}
		if (bSet == nil) != (ss == nil) {
			t.Fatalf("nil-set divergence on error: batch %v, stream %v", bSet == nil, ss == nil)
		}
		return
	}
	if got, want := sRep.Render(), bRep.Render(); got != want {
		t.Fatalf("ingest report divergence:\nstream:\n%s\nbatch:\n%s", got, want)
	}
	if got, want := ss.TotalEvents(), bSet.TotalEvents(); got != want {
		t.Fatalf("TotalEvents: stream %d, batch %d", got, want)
	}
	if got, want := ss.String(), bSet.String(); got != want {
		t.Fatalf("String: stream %q, batch %q", got, want)
	}
	mat, err := ss.Materialize(nil)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if got, want := renderSet(t, mat), renderSet(t, bSet); got != want {
		t.Fatalf("materialized set diverges from batch set:\nstream:\n%s\nbatch:\n%s", got, want)
	}
}

func TestStreamReaderMatchesBatchClean(t *testing.T) {
	s := buildSet("main", "MPI_Init", "work", "MPI_Finalize")
	t2 := s.Get(trace.TID(3, 1))
	t2.Append(s.Registry.ID("main"), trace.Enter)
	t2.Append(s.Registry.ID("work"), trace.Enter)
	t2.Truncated = true
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []trace.ReadMode{trace.Strict, trace.Lenient} {
		requireStreamMatchesBatch(t, buf.Bytes(), trace.ReadOptions{Mode: mode})
	}
}

// TestStreamReaderMatchesBatchLoopy exercises predictor-heavy streams: deep
// RLE hit runs are exactly where a replay bug (predictor state divergence)
// would show up.
func TestStreamReaderMatchesBatchLoopy(t *testing.T) {
	s := trace.NewTraceSet()
	names := []string{"a", "b", "c", "d", "e"}
	rng := rand.New(rand.NewSource(42))
	for th := 0; th < 4; th++ {
		tr := s.Get(trace.TID(th/2, th%2))
		for loop := 0; loop < 20; loop++ {
			body := names[rng.Intn(len(names))]
			iters := 1 + rng.Intn(500)
			for i := 0; i < iters; i++ {
				tr.Append(s.Registry.ID(body), trace.Enter)
				tr.Append(s.Registry.ID(body), trace.Exit)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	requireStreamMatchesBatch(t, buf.Bytes(), trace.ReadOptions{})
	requireStreamMatchesBatch(t, buf.Bytes(), trace.ReadOptions{Mode: trace.Lenient})
	// Bounded reads: caps engage the shared salvage gates.
	requireStreamMatchesBatch(t, buf.Bytes(), trace.ReadOptions{
		Mode: trace.Lenient, MaxEventsPerTrace: 100, MaxTraces: 2,
	})
}

// TestStreamReaderMatchesBatchChaos runs every binary corruption operator
// over a healthy file and asserts the streaming reader salvages exactly
// what the batch reader salvages.
func TestStreamReaderMatchesBatchChaos(t *testing.T) {
	s := buildSet("main", "compute", "exchange", "reduce")
	t2 := s.Get(trace.TID(1, 0))
	for i := 0; i < 200; i++ {
		t2.Append(s.Registry.ID("compute"), trace.Enter)
		t2.Append(s.Registry.ID("compute"), trace.Exit)
	}
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, op := range chaos.Binary() {
		for round := 0; round < 8; round++ {
			corrupted := op.Apply(buf.Bytes(), rng)
			t.Run(op.Name, func(t *testing.T) {
				requireStreamMatchesBatch(t, corrupted, trace.ReadOptions{Mode: trace.Lenient})
			})
		}
	}
}

// TestSymbolReaderIndependentReplay: readers over the same stream are
// independent and replay identically (the DiffRun fixpoint re-reads every
// stream each summarization round).
func TestSymbolReaderIndependentReplay(t *testing.T) {
	s := buildSet("x", "y", "z")
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	ss, err := ReadStreamSet(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := ss.Get(trace.TID(0, 0))
	if st == nil {
		t.Fatal("stream trace missing")
	}
	read := func() []uint32 {
		var out []uint32
		r := st.Reader()
		for {
			fn, kind, ok := r.Next()
			if !ok {
				break
			}
			out = append(out, fn<<1|uint32(kind))
		}
		return out
	}
	first, second := read(), read()
	if len(first) != st.Events() || len(first) != len(second) {
		t.Fatalf("replay lengths: %d, %d, want %d", len(first), len(second), st.Events())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %d != %d", i, first[i], second[i])
		}
	}
}

// FuzzStreamReader: for arbitrary PLOT1 bytes the streaming reader and
// ReadSetBinaryOptions agree on kept/dropped/quarantined accounting, and
// materializing the stream reproduces the batch set byte for byte.
func FuzzStreamReader(f *testing.F) {
	s := buildSet("a", "b")
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte("PLOT1"))
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-2])
	if len(good) > 8 {
		flipped := append([]byte(nil), good...)
		flipped[6] ^= 0xff // inside the name table
		f.Add(flipped)
		flipped2 := append([]byte(nil), good...)
		flipped2[len(good)-3] ^= 0xff // inside the last stream
		f.Add(flipped2)
	}
	f.Add([]byte("PLOT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // huge name count
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []trace.ReadOptions{
			{Mode: trace.Lenient},
			{Mode: trace.Lenient, MaxEventsPerTrace: 8, MaxTraces: 4},
			{}, // strict
		} {
			requireStreamMatchesBatch(t, data, opts)
		}
		// Streaming accounting invariant, mirroring FuzzReadSetBinary's.
		ss, rep, err := ReadStreamSetContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{Mode: trace.Lenient})
		if err != nil {
			t.Fatalf("lenient stream read returned error: %v", err)
		}
		if got, want := ss.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
			t.Fatalf("accounting: TotalEvents %d != kept %d + synthesized %d",
				got, rep.EventsKept, rep.EventsSynthesized)
		}
	})
}
