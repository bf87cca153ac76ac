package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 32} {
		n := 257
		counts := make([]int32, n)
		Do(nil, nil, "test", workers, n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	Do(nil, nil, "test", 4, 0, func(i int) { t.Fatal("fn called for n=0") })
	ran := false
	Do(nil, nil, "test", 4, 1, func(i int) { ran = true })
	if !ran {
		t.Fatal("fn not called for n=1")
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	Do(nil, nil, "test", workers, 64, func(i int) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent workers, want <= %d", p, workers)
	}
}

// TestDoPanicLowestIndex: with several panicking items, the caller sees the
// lowest index's panic value regardless of scheduling.
func TestDoPanicLowestIndex(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom-3" {
			t.Fatalf("recovered %v, want boom-3", p)
		}
	}()
	Do(nil, nil, "test", 8, 32, func(i int) {
		if i == 3 || i == 17 || i == 31 {
			panic("boom-" + string(rune('0'+i%10)))
		}
	})
	t.Fatal("Do returned instead of panicking")
}

func TestDoPanicInline(t *testing.T) {
	defer func() {
		if p := recover(); p != "serial" {
			t.Fatalf("recovered %v, want serial", p)
		}
	}()
	Do(nil, nil, "test", 1, 4, func(i int) {
		if i == 2 {
			panic("serial")
		}
	})
	t.Fatal("inline Do swallowed the panic")
}

func TestWorkersAndDivide(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-1) = %d", got)
	}
	if got := Divide(8, 2); got != 4 {
		t.Errorf("Divide(8,2) = %d", got)
	}
	if got := Divide(2, 8); got != 1 {
		t.Errorf("Divide(2,8) = %d", got)
	}
	if got := Divide(8, 0); got != 8 {
		t.Errorf("Divide(8,0) = %d", got)
	}
}

// TestDivideClampsZeroBudgetChildren is the regression test for the
// budget < workers edge case: nested division must never hand a child a
// zero (or negative) worker budget — every child gets at least 1.
func TestDivideClampsZeroBudgetChildren(t *testing.T) {
	cases := []struct{ total, outer, want int }{
		{1, 2, 1},  // budget smaller than fan-out
		{3, 4, 1},  // truncating division would yield 0
		{0, 4, 1},  // no budget at all
		{-2, 4, 1}, // negative budget (repeated nested division gone wrong)
		{4, -1, 4}, // degenerate outer
		{7, 2, 3},  // ordinary truncation unchanged
		{16, 4, 4}, // exact division unchanged
	}
	for _, c := range cases {
		if got := Divide(c.total, c.outer); got != c.want {
			t.Errorf("Divide(%d,%d) = %d, want %d", c.total, c.outer, got, c.want)
		}
		if got := Divide(c.total, c.outer); got < 1 {
			t.Fatalf("Divide(%d,%d) = %d: zero-budget child", c.total, c.outer, got)
		}
	}
	// Nested division to exhaustion still yields a usable budget.
	w := 2
	for i := 0; i < 8; i++ {
		w = Divide(w, 4)
		if w < 1 {
			t.Fatalf("nested Divide collapsed to %d", w)
		}
	}
}

func TestDoContextNilCtxRunsAll(t *testing.T) {
	n := 64
	counts := make([]int32, n)
	if err := Do(nil, nil, "test", 4, n, func(i int) { atomic.AddInt32(&counts[i], 1) }); err != nil {
		t.Fatalf("Do(nil ctx) err = %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestDoContextCancelStopsClaims: a context cancelled mid-loop stops new
// claims on every worker; items already claimed finish, and the call
// reports ctx.Err().
func TestDoContextCancelStopsClaims(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		const n = 1 << 20
		err := Do(ctx, nil, "test", workers, n, func(i int) {
			if ran.Add(1) == 8 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: cancellation did not stop the loop (%d items ran)", workers, got)
		}
		cancel()
	}
}

func TestDoContextPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Do(ctx, nil, "test", 4, 16, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled ctx", ran.Load())
	}
}

func TestDoObservedContextCompleteIsNil(t *testing.T) {
	if err := Do(context.Background(), nil, "site", 2, 8, func(i int) {}); err != nil {
		t.Fatalf("err = %v", err)
	}
}
