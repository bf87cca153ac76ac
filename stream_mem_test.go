// Streaming memory-ceiling regression test: the whole point of diffing
// compressed StreamSets is that analysis memory is bounded by the
// compressed input plus per-object summarizer state, never by the trace
// expansion. This test generates a PLOT1 pair whose expansion is >=20x the
// heap budget, diffs the compressed sets under a heap sampler, and fails if
// the live heap ever exceeded the budget. `make memceiling` (and its CI
// job) runs it; -short skips it.
package difftrace_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"runtime/debug"
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

// streamPlotNames is the function universe of the generated traces.
var streamPlotNames = []string{"MPI_Send", "MPI_Recv", "MPI_Barrier", "compute_a", "compute_b"}

// genStreamPlot writes a PLOT1 blob directly through the FCM/RLE encoder —
// never materializing a TraceSet — so generation itself stays O(1) in the
// event count. Each of the threads processes cycles through the name table
// (one long, perfectly regular loop the compressor collapses to almost
// nothing); variant phase-shifts the last thread's second half, giving the
// diff a real deviant to find.
func genStreamPlot(t testing.TB, threads, eventsPerThread, variant int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("PLOT1")
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putUvarint(uint64(len(streamPlotNames)))
	for _, n := range streamPlotNames {
		putUvarint(uint64(len(n)))
		buf.WriteString(n)
	}
	putUvarint(uint64(threads))
	for th := 0; th < threads; th++ {
		putUvarint(uint64(th)) // process
		putUvarint(0)          // thread
		buf.WriteByte(0)       // not truncated
		var comp bytes.Buffer
		enc := parlot.NewEncoder(&comp)
		for i := 0; i < eventsPerThread; i++ {
			shift := 0
			if variant != 0 && th == threads-1 && i > eventsPerThread/2 {
				shift = variant
			}
			fn := uint32((i + shift) % len(streamPlotNames))
			enc.Encode(fn<<1 | uint32(trace.Enter))
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		putUvarint(uint64(comp.Len()))
		buf.Write(comp.Bytes())
	}
	return buf.Bytes()
}

func TestStreamingMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-ceiling workload skipped under -short (make memceiling runs it)")
	}
	const (
		threads         = 4
		eventsPerThread = 3_000_000
		budget          = 8 << 20 // peak live heap over baseline
	)
	// The premise the test exists to defend: the expansion could not fit.
	expansion := 2 * threads * eventsPerThread * 8 // trace.Event is 8 bytes
	if expansion < 20*budget {
		t.Fatalf("workload too small: expansion %d < 20x budget %d", expansion, 20*budget)
	}

	normalBlob := genStreamPlot(t, threads, eventsPerThread, 0)
	faultyBlob := genStreamPlot(t, threads, eventsPerThread, 2)
	t.Logf("compressed inputs: %d + %d bytes for %d events (%.0fx expansion over budget)",
		len(normalBlob), len(faultyBlob), 2*threads*eventsPerThread, float64(expansion)/budget)

	reg := trace.NewRegistry()
	normal, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(normalBlob), reg, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(faultyBlob), reg, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	normalBlob, faultyBlob = nil, nil

	// Tighten GC pacing so the sampled peak tracks live state rather than
	// collector laziness; the ceiling is a statement about what the
	// pipeline holds, not about GOGC defaults.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	sampler := obs.StartHeapSamplerInto(time.Millisecond, nil)
	rep, err := core.DiffRun(normal, faulty, core.Config{
		Filter: filter.Everything(), Attr: attr.Config{Kind: attr.Single, Freq: attr.Actual},
		Linkage: cluster.Ward, Workers: 2,
	})
	peak := sampler.Stop()
	if err != nil {
		t.Fatal(err)
	}

	// The run must have actually analyzed the deviant, not shortcut.
	suspects := rep.Processes.TopSuspects(1, 1e-9)
	if len(suspects) == 0 || suspects[0] != "3" {
		t.Errorf("deviant process not ranked first: %v", suspects)
	}
	used := int64(peak) - int64(baseline)
	t.Logf("peak heap over baseline: %.2f MiB (budget %.0f MiB)", float64(used)/(1<<20), float64(budget)/(1<<20))
	if used > budget {
		t.Fatalf("streaming analysis exceeded its memory budget: peak-baseline %d bytes > %d", used, budget)
	}
}
