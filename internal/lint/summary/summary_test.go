package summary_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"difftrace/internal/lint"
	"difftrace/internal/lint/summary"
)

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func passFor(t *testing.T, root string) *lint.ModulePass {
	t.Helper()
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	return lint.NewModulePass(pkgs, root)
}

// testModule exercises every summary dimension at once: order taint
// through a helper return, a struct field, and laundering; lock discipline
// with direct locks, defer, and lock helpers; atomics; and ctx flow.
func testModule() map[string]string {
	return map[string]string{
		"go.mod": "module sm\n\ngo 1.22\n",
		"order/order.go": `package order

// Keys returns m's keys in iteration order without ranging at a sink,
// so per-function checks cannot see the hazard.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
		"cell/cell.go": `package cell

import "sync"

type Gauge struct {
	mu  sync.Mutex
	Val []string
}

func (g *Gauge) Set(v []string) {
	g.mu.Lock()
	g.Val = v
	g.mu.Unlock()
}

func (g *Gauge) lock()   { g.mu.Lock() }
func (g *Gauge) unlock() { g.mu.Unlock() }

func (g *Gauge) Swap(v []string) []string {
	g.lock()
	old := g.Val
	g.Val = v
	g.unlock()
	return old
}

func (g *Gauge) peek() []string { return g.Val }

func (g *Gauge) Render() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.peek())
}
`,
		"a.go": `package sm

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"sm/order"
)

type Cache struct {
	hot []string
}

func (c *Cache) Fill(m map[string]bool) {
	for k := range m {
		c.hot = append(c.hot, k)
	}
}

func (c *Cache) Dump() {
	fmt.Println(c.hot)
}

type Stats struct {
	hits int64
}

func (s *Stats) Hit()        { atomic.AddInt64(&s.hits, 1) }
func (s *Stats) Racy() int64 { return s.hits }

func Emit(m map[string]int) {
	ks := order.Keys(m)
	fmt.Println(ks)
}

func EmitSorted(m map[string]int) {
	ks := order.Keys(m)
	sort.Strings(ks)
	fmt.Println(ks)
}

func Run(ctx context.Context, n int) { work(n) }

func work(n int) {}

func RunGood(ctx context.Context, n int) { workCtx(ctx, n) }

func workCtx(ctx context.Context, n int) {}
`,
	}
}

func TestOrderFixpoint(t *testing.T) {
	s := summary.Build(passFor(t, writeModule(t, testModule())))

	if !s.ResolveUnordered("call:sm/order.Keys") {
		t.Error("order.Keys should be unordered: it returns range-collected keys")
	}
	if !s.ResolveUnordered("field:sm.Cache.hot") {
		t.Error("Cache.hot should be order-tainted through Fill")
	}

	flows := make(map[string][]summary.SinkFlow)
	for _, ps := range s.Pkgs {
		for _, f := range ps.SinkFlows {
			flows[f.Fn] = append(flows[f.Fn], f)
		}
	}
	var emitHit bool
	for _, f := range flows["sm.Emit"] {
		if f.Source == "call:sm/order.Keys" && f.Sink == "fmt.Println" && s.ResolveUnordered(f.Source) {
			emitHit = true
		}
	}
	if !emitHit {
		t.Errorf("Emit should flow order.Keys into fmt.Println; got %+v", flows["sm.Emit"])
	}
	for _, f := range flows["sm.EmitSorted"] {
		if s.ResolveUnordered(f.Source) {
			t.Errorf("EmitSorted sorted before printing, yet flow %+v survives", f)
		}
	}
	var dumpHit bool
	for _, f := range flows["(*sm.Cache).Dump"] {
		if f.Source == "field:sm.Cache.hot" {
			dumpHit = true
		}
	}
	if !dumpHit {
		t.Errorf("Dump should sink the tainted field; got %+v", flows["(*sm.Cache).Dump"])
	}
}

func TestLockFacts(t *testing.T) {
	s := summary.Build(passFor(t, writeModule(t, testModule())))

	if f := s.Func("(*sm/cell.Gauge).lock"); f == nil || !reflect.DeepEqual(f.LocksAtExit, []string{"sm/cell.Gauge.mu"}) {
		t.Errorf("lock() should report LocksAtExit = [Gauge.mu], got %+v", f)
	}
	accesses := make(map[string][]summary.FieldAccess)
	for _, ps := range s.Pkgs {
		for _, a := range ps.Accesses {
			accesses[a.Fn] = append(accesses[a.Fn], a)
		}
	}
	for _, a := range accesses["(*sm/cell.Gauge).Set"] {
		if len(a.Held) == 0 {
			t.Errorf("Set accesses Val under a direct lock, but Held is empty: %+v", a)
		}
	}
	if as := accesses["(*sm/cell.Gauge).Swap"]; len(as) == 0 {
		t.Error("Swap should record Val accesses")
	} else {
		for _, a := range as {
			if len(a.Held) == 0 {
				t.Errorf("Swap locks via the lock() helper, but Held is empty: %+v", a)
			}
		}
	}
	// peek accesses Val without a lexical lock, but its only call site
	// (Render) holds mu — the LOCKS fixpoint covers it.
	for _, a := range accesses["(*sm/cell.Gauge).peek"] {
		if len(a.Held) != 0 {
			t.Errorf("peek holds no lock lexically, got %+v", a)
		}
	}
	if got := s.HeldAlways("(*sm/cell.Gauge).peek"); !reflect.DeepEqual(got, []string{"sm/cell.Gauge.mu"}) {
		t.Errorf("HeldAlways(peek) = %v, want [sm/cell.Gauge.mu]", got)
	}
	if got := s.HeldAlways("(*sm/cell.Gauge).Render"); got != nil {
		t.Errorf("Render is exported; HeldAlways must be nil, got %v", got)
	}
}

func TestAtomicAndCtxFacts(t *testing.T) {
	s := summary.Build(passFor(t, writeModule(t, testModule())))

	var atomicHit, plainHit bool
	for _, ps := range s.Pkgs {
		for _, a := range ps.Atomics {
			if a.Field == "sm.Stats.hits" && a.Fn == "(*sm.Stats).Hit" {
				atomicHit = true
			}
		}
		for _, a := range ps.Accesses {
			if a.Field == "sm.Stats.hits" && a.Fn == "(*sm.Stats).Racy" && !a.Write {
				plainHit = true
			}
		}
	}
	if !atomicHit {
		t.Error("Hit's atomic.AddInt64(&s.hits, 1) not recorded as an AtomicUse")
	}
	if !plainHit {
		t.Error("Racy's plain read of an atomically-used field not recorded")
	}

	run := s.Func("sm.Run")
	if run == nil || run.CtxParam != 0 {
		t.Fatalf("Run should have ctx at param 0, got %+v", run)
	}
	if len(run.CallsNoCtx) != 1 || run.CallsNoCtx[0].Callee != "sm.work" {
		t.Errorf("Run drops ctx calling work; CallsNoCtx = %+v", run.CallsNoCtx)
	}
	good := s.Func("sm.RunGood")
	if good == nil || !good.ForwardsCtx || len(good.CallsNoCtx) != 0 {
		t.Errorf("RunGood forwards ctx; got %+v", good)
	}
}
