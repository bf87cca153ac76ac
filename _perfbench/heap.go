package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// rtSnap is a reading of the Go runtime counters the benchmark reports.
type rtSnap struct {
	live, allocs, cycles uint64
	gcCPU, totalCPU      float64
}

var rtNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		live:     s[0].Value.Uint64(),
		allocs:   s[1].Value.Uint64(),
		cycles:   s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		totalCPU: s[4].Value.Float64(),
	}
}

// liveHeap reads the heap the last GC found live.
func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak of the GC's live-heap figure. It polls
// /gc/heap/live:bytes, which changes only when a GC cycle ends, so the
// peak is the largest heap a collection found reachable.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: rtNames[0]}}
	h.peak.Store(liveHeap(s))
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe(liveHeap(s))
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// reset returns the peak since the last reset and restarts from the
// current live heap.
func (h *heapSampler) reset() uint64 {
	cur := liveHeap([]metrics.Sample{{Name: rtNames[0]}})
	p := h.peak.Swap(cur)
	if cur > p {
		p = cur
	}
	return p
}

// close stops the sampler and waits for its goroutine.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// baseline collects garbage and returns the live heap afterwards.
func baseline() uint64 {
	runtime.GC()
	return readRT().live
}
