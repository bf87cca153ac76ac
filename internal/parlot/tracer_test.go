package parlot

import (
	"reflect"
	"sync"
	"testing"

	"difftrace/internal/trace"
)

func TestTracerRecordsEnterExit(t *testing.T) {
	tr := NewTracer(MainImage)
	th := tr.Thread(trace.TID(0, 0))
	th.Enter("main")
	th.Enter("MPI_Init")
	th.Exit("MPI_Init")
	th.Exit("main")

	set := tr.Collect()
	got := set.Traces[trace.TID(0, 0)]
	if got == nil || got.Len() != 4 {
		t.Fatalf("trace = %+v", got)
	}
	names := got.Names(set.Registry)
	if !reflect.DeepEqual(names, []string{"main", "MPI_Init"}) {
		t.Errorf("call names = %v", names)
	}
	if got.Events[2].Kind != trace.Exit {
		t.Error("exit kind lost")
	}
}

func TestTracerFnHelper(t *testing.T) {
	tr := NewTracer(MainImage)
	th := tr.Thread(trace.TID(1, 2))
	func() { defer th.Fn("work")() }()
	set := tr.Collect()
	ev := set.Traces[trace.TID(1, 2)].Events
	if len(ev) != 2 || ev[0].Kind != trace.Enter || ev[1].Kind != trace.Exit {
		t.Fatalf("events = %v", ev)
	}
}

func TestTracerCallHelper(t *testing.T) {
	tr := NewTracer(MainImage)
	th := tr.Thread(trace.TID(0, 0))
	ran := false
	th.Call("f", func() {
		ran = true
	})
	if !ran {
		t.Fatal("Call did not run fn")
	}
}

func TestThreadReuseSameTracer(t *testing.T) {
	tr := NewTracer(MainImage)
	a := tr.Thread(trace.TID(3, 1))
	b := tr.Thread(trace.TID(3, 1))
	if a != b {
		t.Error("Thread() should return the same ThreadTracer per ID")
	}
}

func TestTracerConcurrentThreads(t *testing.T) {
	tr := NewTracer(MainImage)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		for th := 0; th < 4; th++ {
			wg.Add(1)
			go func(p, thn int) {
				defer wg.Done()
				tt := tr.Thread(trace.TID(p, thn))
				for i := 0; i < 50; i++ {
					tt.Call("CPU_Exec", func() {})
				}
			}(p, th)
		}
	}
	wg.Wait()
	set := tr.Collect()
	if len(set.Traces) != 16 {
		t.Fatalf("got %d traces", len(set.Traces))
	}
	for id, tc := range set.Traces {
		if tc.Len() != 100 {
			t.Errorf("trace %v has %d events, want 100", id, tc.Len())
		}
	}
}

func TestCompressedStreamMatchesTrace(t *testing.T) {
	tr := NewTracer(MainImage)
	th := tr.Thread(trace.TID(0, 0))
	for i := 0; i < 500; i++ {
		th.Call("loop_body", func() { th.Call("inner", func() {}) })
	}
	set := tr.Collect()
	want := set.Traces[trace.TID(0, 0)]

	decoded, err := DecodeCompressed(th.Compressed(), trace.TID(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Len() != want.Len() {
		t.Fatalf("decoded %d events, want %d", decoded.Len(), want.Len())
	}
	for i := range want.Events {
		if decoded.Events[i] != want.Events[i] {
			t.Fatalf("event %d mismatch: %v vs %v", i, decoded.Events[i], want.Events[i])
		}
	}
	if tr.CompressedBytes() >= want.Len() { // far fewer bytes than events
		t.Errorf("compressed %d bytes for %d events", tr.CompressedBytes(), want.Len())
	}
}

func TestMarkTruncated(t *testing.T) {
	tr := NewTracer(MainImage)
	th := tr.Thread(trace.TID(5, 0))
	th.Enter("MPI_Allreduce") // never returns: deadlock
	th.MarkTruncated()
	th.Enter("after_kill") // the process is dead: must not be recorded
	set := tr.Collect()
	got := set.Traces[trace.TID(5, 0)]
	if !got.Truncated {
		t.Error("truncation flag lost")
	}
	if got.Len() != 1 {
		t.Errorf("events after truncation recorded: %v", got.Names(set.Registry))
	}
}

func TestSharedRegistryAcrossRuns(t *testing.T) {
	reg := trace.NewRegistry()
	t1 := NewTracerWith(MainImage, reg)
	t2 := NewTracerWith(MainImage, reg)
	t1.Thread(trace.TID(0, 0)).Enter("MPI_Send")
	t2.Thread(trace.TID(0, 0)).Enter("MPI_Send")
	s1, s2 := t1.Collect(), t2.Collect()
	f1 := s1.Traces[trace.TID(0, 0)].Events[0].Func
	f2 := s2.Traces[trace.TID(0, 0)].Events[0].Func
	if f1 != f2 {
		t.Errorf("same name got IDs %d and %d across runs", f1, f2)
	}
}
