package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"difftrace/internal/apps/lulesh"
	"difftrace/internal/apps/oddeven"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// rngFor derives an independent random stream for one purpose from the
// workload seed, so adding a draw in one generator never shifts another.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Shape of the stream-loopy pair: 4 processes x 2 threads, each a nested
// loop of timesteps over kernel iterations, a halo exchange and an
// allreduce, about 290k enter/exit events per thread.
const (
	loopyProcs       = 4
	loopyThreads     = 2
	loopyTimesteps   = 5000
	loopyKernelIters = 8
	// loopyIrregular is the mean number of timesteps between irregular
	// calls (checkpoints, rebalancing, log flushes).
	loopyIrregular = 250
)

// loopyNames is the function universe of the stream-loopy traces; the
// file name table lists them in this order.
var loopyNames = []string{
	"main", "timestep", "kernel", "stencil", "update",
	"MPI_Isend", "MPI_Irecv", "MPI_Waitall", "MPI_Allreduce",
	"io_checkpoint", "load_balance", "log_flush",
}

// loopyPlan is the seeded part of the stream-loopy pair.
type loopyPlan struct {
	faultProc, faultThread int // the thread that runs one extra kernel iteration
	faultFrom              int // ... from this timestep onward
}

func newLoopyPlan(seed int64) loopyPlan {
	r := rngFor(seed, "stream-loopy/fault")
	t := r.Intn(loopyProcs * loopyThreads)
	return loopyPlan{
		faultProc:   t / loopyThreads,
		faultThread: t % loopyThreads,
		faultFrom:   loopyTimesteps/4 + r.Intn(loopyTimesteps/4),
	}
}

// genLoopy writes one side of the stream-loopy pair as a PLOT1 blob,
// encoding each thread straight through parlot.NewEncoder so no TraceSet
// is materialized. The irregular calls depend only on the seed and the
// thread, so both sides share them; the faulty side differs only in the
// planted extra kernel iteration.
func genLoopy(seed int64, plan loopyPlan, faulty bool) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("PLOT1")
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(w *bytes.Buffer, v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		w.Write(scratch[:n])
	}
	putUvarint(&buf, uint64(len(loopyNames)))
	for _, n := range loopyNames {
		putUvarint(&buf, uint64(len(n)))
		buf.WriteString(n)
	}
	putUvarint(&buf, loopyProcs*loopyThreads)
	var comp bytes.Buffer
	for p := 0; p < loopyProcs; p++ {
		for th := 0; th < loopyThreads; th++ {
			putUvarint(&buf, uint64(p))
			putUvarint(&buf, uint64(th))
			buf.WriteByte(0) // not truncated
			comp.Reset()
			enc := parlot.NewEncoder(&comp)
			call := func(fn uint32) {
				enc.Encode(fn<<1 | uint32(trace.Enter))
				enc.Encode(fn<<1 | uint32(trace.Exit))
			}
			r := rngFor(seed, fmt.Sprintf("stream-loopy/irregular/%d.%d", p, th))
			planted := faulty && p == plan.faultProc && th == plan.faultThread
			enc.Encode(0<<1 | uint32(trace.Enter)) // main
			for ts := 0; ts < loopyTimesteps; ts++ {
				enc.Encode(1<<1 | uint32(trace.Enter)) // timestep
				iters := loopyKernelIters
				if planted && ts >= plan.faultFrom {
					iters++
				}
				for k := 0; k < iters; k++ {
					enc.Encode(2<<1 | uint32(trace.Enter)) // kernel
					call(3)                                // stencil
					call(4)                                // update
					enc.Encode(2<<1 | uint32(trace.Exit))
				}
				call(5) // MPI_Isend
				call(6) // MPI_Irecv
				call(7) // MPI_Waitall
				call(8) // MPI_Allreduce
				if r.Intn(loopyIrregular) == 0 {
					call(uint32(9 + r.Intn(3)))
				}
				enc.Encode(1<<1 | uint32(trace.Exit))
			}
			enc.Encode(0<<1 | uint32(trace.Exit))
			if err := enc.Flush(); err != nil {
				return nil, err
			}
			putUvarint(&buf, uint64(comp.Len()))
			buf.Write(comp.Bytes())
		}
	}
	return buf.Bytes(), nil
}

// Shape of the sweep-lulesh pair: LULESH at 40 processes x 8 threads, one
// cycle, 2 elements per cube edge. The faulty rank skips LagrangeLeapFrog.
const (
	sweepProcs   = 40
	sweepThreads = 8
	sweepEdge    = 2
)

// sweepFaultRank picks the faulty rank among the interior ranks 2..37,
// whose deadlocked traces all have the same length, so the sweep's cost
// does not depend on the seed.
func sweepFaultRank(seed int64) int {
	return 2 + rngFor(seed, "sweep-lulesh/rank").Intn(sweepProcs-4)
}

// genLulesh runs one cycle of the LULESH proxy, with edge elements per
// cube edge, under the ParLOT tracer.
func genLulesh(procs, threads, edge int, plan *faults.Plan) (*trace.TraceSet, error) {
	tr := parlot.NewTracer(parlot.MainImage)
	if _, err := lulesh.Run(lulesh.Config{
		Procs: procs, Threads: threads, EdgeElems: edge, Regions: 11,
		Cycles: 1, Plan: plan, Tracer: tr,
	}); err != nil {
		return nil, fmt.Errorf("lulesh: %w", err)
	}
	return tr.Collect(), nil
}

// genOddeven runs the odd/even sort under the ParLOT tracer.
func genOddeven(procs int, seed int64, plan *faults.Plan) (*trace.TraceSet, error) {
	tr := parlot.NewTracer(parlot.MainImage)
	if _, err := oddeven.Run(oddeven.Config{Procs: procs, Seed: seed, Plan: plan, Tracer: tr}); err != nil {
		return nil, fmt.Errorf("oddeven: %w", err)
	}
	return tr.Collect(), nil
}

func skipLeapFrog(rank int) *faults.Plan {
	return faults.NewPlan(faults.Fault{Kind: faults.SkipFunction, Process: rank, Thread: -1, Target: "LagrangeLeapFrog"})
}

// plotBytes writes set as a PLOT1 blob. The tracer interns a name when a
// rank first calls it, so its IDs, and with them the order of the PLOT1
// name table, follow the goroutine schedule. Re-interning the names in
// sorted order first makes the bytes a function of the traces alone.
func plotBytes(set *trace.TraceSet) ([]byte, error) {
	names := set.Registry.Names()
	sort.Strings(names)
	reg := trace.NewRegistry()
	for _, n := range names {
		reg.ID(n)
	}
	canon := trace.NewTraceSetWith(reg)
	for id, tr := range set.Traces {
		ct := canon.Get(id)
		ct.Truncated = tr.Truncated
		for _, e := range tr.Events {
			ct.Append(reg.ID(set.Registry.Name(e.Func)), e.Kind)
		}
	}
	var b bytes.Buffer
	err := parlot.WriteSetBinary(&b, canon)
	return b.Bytes(), err
}

func textBytes(set *trace.TraceSet) ([]byte, error) {
	var b bytes.Buffer
	err := trace.WriteSetText(&b, set)
	return b.Bytes(), err
}
