// Source benchmark: the same PLOT1 bytes diffed through DiffRun as a
// materialized TraceSet (mode=batch) and as a compressed StreamSet
// (mode=stream, re-decoded every summarization round). Same report, two
// memory stories. `make bench-streaming` regenerates the
// BENCH_streaming.json baseline; the headline numbers are the
// peak-heap-MiB gap between the two sources and their wall times.
package difftrace_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/obs"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// streamBenchConfig is the shared analysis configuration of both sources.
func streamBenchConfig() core.Config {
	return core.Config{
		Filter: filter.Everything(), Attr: attr.Config{Kind: attr.Single, Freq: attr.Actual},
		Linkage: cluster.Ward, Workers: 2,
	}
}

// BenchmarkStreaming_DiffRun runs the full diff over a loopy 8M-event pair
// from both sources, reporting the sampled peak heap (over a post-GC
// baseline) alongside the usual time/allocs. The reports are
// byte-identical — the differential suite proves that; this benchmark
// prices the two sources.
func BenchmarkStreaming_DiffRun(b *testing.B) {
	const threads, eventsPerThread = 4, 1_000_000
	normalBlob := genStreamPlot(b, threads, eventsPerThread, 0)
	faultyBlob := genStreamPlot(b, threads, eventsPerThread, 2)

	measure := func(b *testing.B, run func()) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		baseline := ms.HeapAlloc
		sampler := obs.StartHeapSamplerInto(time.Millisecond, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.StopTimer()
		peak := sampler.Stop()
		b.ReportMetric(float64(int64(peak)-int64(baseline))/(1<<20), "peak-heap-MiB")
	}

	b.Run("mode=batch", func(b *testing.B) {
		measure(b, func() {
			reg := trace.NewRegistry()
			normal, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(normalBlob), reg, trace.ReadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			faulty, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(faultyBlob), reg, trace.ReadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.DiffRun(normal, faulty, streamBenchConfig()); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("mode=stream", func(b *testing.B) {
		measure(b, func() {
			reg := trace.NewRegistry()
			normal, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(normalBlob), reg, trace.ReadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			faulty, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(faultyBlob), reg, trace.ReadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.DiffRun(normal, faulty, streamBenchConfig()); err != nil {
				b.Fatal(err)
			}
		})
	})
}
