package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// HeapSampler tracks the peak live heap over an interval of work by
// polling runtime.ReadMemStats on a ticker. It exists for the streaming
// memory-ceiling proofs: the claim "this analysis never materializes the
// expanded traces" is only checkable as "HeapAlloc stayed under budget
// while it ran", and obs owns the clock that makes such sampling legal
// (wall time here never reaches a manifest — the sampler reports bytes).
//
// Sampling observes GC-visible live heap, so it undercounts transients
// shorter than the interval; callers bound that error by choosing the
// interval and by a final synchronous sample at Stop.
type HeapSampler struct {
	stop     chan struct{}
	done     chan struct{}
	peak     atomic.Uint64
	progress *Progress // optional mirror; nil is off
}

// StartHeapSamplerInto begins sampling every interval until Stop. It takes
// an immediate first sample so even a panicking caller has a floor reading.
// Each new peak is mirrored into the job's live Progress, so
// GET /v1/jobs/{id} can show peak heap while the job still runs; a nil
// progress means plain sampling.
func StartHeapSamplerInto(interval time.Duration, p *Progress) *HeapSampler {
	s := &HeapSampler{stop: make(chan struct{}), done: make(chan struct{}), progress: p}
	s.sample()
	//lint:allow nakedgoroutine sampler must run outside the Workers budget to observe the pipeline's heap from the side; it is joined by Stop via s.done and bounded by the stop channel
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// sample folds one ReadMemStats reading into the running peak.
func (s *HeapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		cur := s.peak.Load()
		if ms.HeapAlloc <= cur || s.peak.CompareAndSwap(cur, ms.HeapAlloc) {
			break
		}
	}
	s.progress.SetHeapPeak(s.peak.Load())
}

// Stop halts sampling, takes one final synchronous sample, and returns the
// peak HeapAlloc observed, in bytes. Stop must be called exactly once.
func (s *HeapSampler) Stop() uint64 {
	if s == nil {
		return 0
	}
	close(s.stop)
	<-s.done
	s.sample()
	return s.peak.Load()
}
