package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"difftrace/internal/core"
	"difftrace/internal/nlr"
)

// minOps is the fewest ops a timed phase runs, however long they take.
const minOps = 3

// repeatSetup runs setup setupReps times and reports the median as setup_s.
// Every setup but the last is torn down; the last one is returned for the
// timed phase.
func repeatSetup[T any](b *bench, setup func(dir string) (T, func(), error)) (T, error) {
	var samples []float64
	var last T
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", rep))
		start := time.Now()
		v, teardown, err := setup(dir)
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		samples = append(samples, time.Since(start).Seconds())
		if rep < setupReps-1 {
			teardown()
			os.RemoveAll(dir)
		}
		last = v
	}
	b.metrics["setup_s"] = median(samples)
	b.timings["setup_s"] = timing{Samples: len(samples), Percentile: 50}
	return last, nil
}

// timeSerial runs op back to back for the run's length (at least minOps
// times) and records the end-to-end metrics of a single-caller workload:
// op latency percentiles, ops per second, the median per-op peak of the
// live heap above the post-GC baseline, and bytes allocated per op. op
// returns a check that runs after the op's timing stops; a check error
// fails the op without stopping the run.
func (b *bench) timeSerial(op func() (check func() error, err error)) error {
	base := baseline()
	hs := startHeapSampler(time.Millisecond)
	defer hs.close()
	var lat, peaks []float64
	var allocs uint64
	start := time.Now()
	for len(lat) < minOps || time.Since(start) < b.seconds {
		hs.reset()
		a0 := readRT().allocs
		t0 := time.Now()
		check, err := op()
		d := time.Since(t0)
		allocs += readRT().allocs - a0
		peak := hs.reset()
		if err != nil {
			return err
		}
		b.attempted++
		lat = append(lat, ms(d))
		peaks = append(peaks, mib(float64(peak)-float64(base)))
		if err := check(); err != nil {
			b.fail("op %d: %v", b.attempted, err)
		}
	}
	elapsed := time.Since(start)
	b.addTiming("op_p50_ms", lat, 0.5)
	b.metrics["jobs_per_s"] = float64(len(lat)) / elapsed.Seconds()
	b.metrics["peak_heap_mib"] = median(peaks)
	b.timings["peak_heap_mib"] = timing{Samples: len(peaks), Percentile: 50}
	b.metrics["alloc_mib_per_op"] = mib(float64(allocs) / float64(len(lat)))
	return nil
}

// untracedBase times the two untraced ops a traced run compares against:
// one with the default worker count, one with Workers: 1. It records the
// Go runtime's GC work during the default op.
type untracedBase struct {
	def, one time.Duration
	gcCycles float64
	gcFrac   float64
}

// op runs the op with the given worker count (0: the default) and returns
// its wall time.
func timeBase(op func(workers int) (time.Duration, error)) (untracedBase, error) {
	var u untracedBase
	var err error
	runtime.GC()
	before := readRT()
	if u.def, err = op(0); err != nil {
		return u, err
	}
	after := readRT()
	u.gcCycles = float64(after.cycles - before.cycles)
	u.gcFrac = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	runtime.GC()
	u.one, err = op(1)
	return u, err
}

// countMetrics are per-layer counters reported per traced op.
var countMetrics = []string{
	"parlot.symbols", "trace.read_bytes", "trace.name_calls", "filter.events_in",
	"nlr.tokens_in", "nlr.rounds", "nlr.table_bodies", "attr.distinct", "fca.attrs",
	"jaccard.cells", "cluster.objects", "diffnlr.report_bytes", "rank.combos",
	"store.put_bytes", "service.poll_calls", "service.refused", "service.retries",
}

// finishTraced turns a traced run's spans and counters into the per-layer
// metrics, writes the span file, and fills every per-layer metric the
// workload does not exercise with 0. ref is the traced wall time of the op
// the untraced base ops repeat.
func (b *bench) finishTraced(t *tracer, st opStats, u untracedBase, ref time.Duration) error {
	b.layerMetrics(st)
	for _, name := range countMetrics {
		b.metrics[name] = t.opCount(name) / float64(st.ops)
	}
	b.metrics["filter.keep_ratio"] = ratio(t.opCount("filter.kept"), t.opCount("filter.events_in"))
	b.metrics["parlot.events_per_byte"] = b.props["parlot.events_per_byte"]
	b.metrics["nlr.fold_ratio"] = b.props["nlr.fold_ratio"]
	b.metrics["nlr.periodic_share"] = b.props["nlr.periodic_share"]
	b.metrics["pool.speedup"] = ratio(float64(u.one), float64(u.def))
	b.metrics["bench.trace_overhead_frac"] = ratio(float64(ref)-float64(u.one), float64(u.one))
	b.metrics["go.gc_cycles"] = u.gcCycles
	b.metrics["go.gc_cpu_frac"] = u.gcFrac
	for _, s := range perLayer {
		if _, ok := b.metrics[s.name]; !ok {
			b.metrics[s.name] = 0
		}
	}
	b.note("untraced_op_ms", ms(u.def), "ms")
	b.note("untraced_workers1_op_ms", ms(u.one), "ms")
	path, err := t.write(b.spanDir, b.workload, b.seed)
	if err != nil {
		return err
	}
	b.spanFile = path
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil {
			b.spanFile = rel
		}
	}
	return nil
}

// nlrProps measures the summarized inputs: tokens in over elements out
// (fold ratio), and the share of tokens inside loops repeating at least
// twice (periodic share).
type nlrProps struct{ in, out, periodic int64 }

func (p *nlrProps) add(r *core.Report) {
	for _, l := range []*core.Level{r.Threads, r.Processes} {
		for _, side := range []*core.Analysis{l.Normal, l.Faulty} {
			for _, elems := range side.NLR {
				p.in += nlr.ExpandedLen(elems)
				p.out += int64(len(elems))
				for _, e := range elems {
					if e.Loop != nil && e.Loop.Count >= 2 {
						p.periodic += nlr.ExpandedLen([]nlr.Element{e})
					}
				}
			}
		}
	}
}

func (p nlrProps) record(b *bench) {
	b.props["nlr.fold_ratio"] = ratio(float64(p.in), float64(p.out))
	b.props["nlr.periodic_share"] = ratio(float64(p.periodic), float64(p.in))
}
