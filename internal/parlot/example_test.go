package parlot_test

import (
	"fmt"

	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// Instrumenting application code: one tracer per run, one thread handle per
// goroutine, Enter/Exit (or Fn/Call) around the functions of interest.
func ExampleTracer() {
	tracer := parlot.NewTracer(parlot.MainImage)
	th := tracer.Thread(trace.TID(0, 0))

	th.Enter("main")
	for i := 0; i < 3; i++ {
		th.Call("work", func() {})
	}
	th.Exit("main")

	set := tracer.Collect()
	fmt.Println(set.Traces[trace.TID(0, 0)].Names(set.Registry))
	// Output:
	// [main work work work]
}

// The incremental compressor reaches ParLOT-like ratios on loopy streams.
func ExampleEncoder() {
	var sink lenWriter
	enc := parlot.NewEncoder(&sink)
	for i := 0; i < 100000; i++ {
		enc.Encode(uint32(i % 4))
	}
	_ = enc.Flush()
	fmt.Printf("%d symbols -> %d bytes\n", 100000, sink.n)
	// Output:
	// 100000 symbols -> 11 bytes
}

type lenWriter struct{ n int }

func (w *lenWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
