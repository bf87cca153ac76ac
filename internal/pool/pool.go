// Package pool is the bounded worker pool behind DiffTrace's intra-run
// parallelism (the paper's future-work item 1: "optimizing [components] to
// exploit multi-core CPUs"). It provides a deterministic-friendly parallel
// for-loop: work items are indexed, results land in caller-owned slots, and
// panics are re-raised in the caller at a deterministic index, so callers
// can parallelize a stage without changing its observable behaviour.
//
// The package depends only on the standard library and the (equally
// dependency-free) obs layer, so every layer — nlr, jaccard, core, rank —
// can import it without cycles.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"difftrace/internal/obs"
)

// Workers resolves a worker-count knob: n itself when positive, otherwise
// runtime.GOMAXPROCS(0) — the "as many as the hardware allows" default.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Divide splits a total worker budget across outer concurrent tasks so the
// nested fan-out (outer tasks × inner workers) does not oversubscribe the
// machine: it returns max(1, total/outer). The clamp matters when the
// budget is smaller than the fan-out (total < outer, including total <= 0
// after repeated nested division): every child must still get one worker,
// or an inner Do would degenerate to a zero-iteration loop and silently
// drop its items.
func Divide(total, outer int) int {
	if outer < 1 {
		outer = 1
	}
	w := total / outer
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns when all calls have finished. Items are claimed dynamically, so
// unbalanced work still packs tightly; with workers <= 1 (or n <= 1) the
// loop runs inline on the caller's goroutine.
//
// Cancellation is cooperative: every worker re-checks ctx between item
// claims (and the inline path checks between iterations), so a cancelled
// loop stops claiming new items while items already claimed run to
// completion. Do returns ctx.Err() when the loop was cut short, nil when
// every item ran; a nil ctx is never cancelled. Items that ran produced
// exactly what a serial run would have, and the caller sees a non-nil
// error whenever any item may have been skipped, so no partial result is
// ever mistaken for a complete one.
//
// Worker busy/idle accounting folds into r under the named call site: each
// loop records its item count, effective worker count, total busy time
// inside fn, and elapsed wall time, from which the manifest derives
// per-site utilization (busy / workers×wall). A nil Run takes the
// zero-cost path — no clocks, no wrappers, no allocations — which is what
// the pipeline runs by default.
//
// A panic inside fn does not kill the process: every worker finishes its
// remaining items' claims, and the panic raised at the lowest panicking
// index is re-raised on the caller's goroutine — deterministic no matter
// which worker hit it first. (Pipeline stages that must survive panics wrap
// fn bodies in resilience.Guard instead; Do's re-raise is the non-resilient
// path where a panic is expected to propagate exactly as in a serial loop.)
func Do(ctx context.Context, r *obs.Run, site string, workers, n int, fn func(i int)) error {
	// Live-progress cursor: when the ctx carries a job Progress, the pool
	// site name is the most precise "what is running right now" available
	// (one write per parallel loop, not per item). Set even on the nil-Run
	// fast path — progress and manifests are independently enabled.
	obs.ProgressFrom(ctx).SetStage(site)
	if r != nil && n > 0 {
		eff := workers
		if eff > n {
			eff = n
		}
		if eff < 1 {
			eff = 1
		}
		var busy atomic.Int64
		start := time.Now()
		// Record even when fn panics (the re-raise happens after all
		// workers drain): a site that dies mid-loop still shows how far
		// it got.
		defer func() {
			r.Pool(site).Record(eff, n, time.Duration(busy.Load()), time.Since(start))
		}()
		inner := fn
		fn = func(i int) {
			t0 := time.Now()
			defer func() { busy.Add(int64(time.Since(t0))) }()
			inner(i)
		}
	}
	doPool(ctx, workers, n, fn)
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// cancelled reports whether ctx is non-nil and already cancelled.
func cancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

func doPool(ctx context.Context, workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if cancelled(ctx) {
				return
			}
			fn(i)
		}
		return
	}
	panics := make([]any, n)
	var panicked atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled(ctx) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = p
							panicked.Store(true)
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
}
