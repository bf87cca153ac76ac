package ilcs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

func smallConfig() Config {
	return Config{
		Procs: 4, Workers: 2, Cities: 10, Seed: 7,
		StableRounds: 2, MaxRounds: 8,
	}
}

// exec is CPU_Exec for a fresh random restart: a seeded random tour
// improved by 2-opt to a local minimum; returns the tour length.
func (t *tsp) exec(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	v, _ := t.execFrom(rng.Perm(t.n))
	return v
}

func TestTSPSolverFindsLocalMinimum(t *testing.T) {
	p := newTSP(10, 1)
	l1 := p.exec(1)
	l2 := p.exec(2)
	if l1 <= 0 || l2 <= 0 {
		t.Fatalf("tour lengths: %f %f", l1, l2)
	}
	// 2-opt from any seed is no worse than a fixed random tour's length.
	tour := make([]int, 10)
	for i := range tour {
		tour[i] = i
	}
	if l1 > p.tourLen(tour)*2 {
		t.Errorf("2-opt result implausibly bad: %f", l1)
	}
}

func TestTSPInstanceDeterministic(t *testing.T) {
	a, b := newTSP(12, 5), newTSP(12, 5)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if a.dist[i][j] != b.dist[i][j] {
				t.Fatal("instance generation not deterministic")
			}
		}
	}
	if newTSP(12, 6).dist[0][1] == a.dist[0][1] {
		t.Error("different seeds gave identical instances")
	}
}

func TestFaultFreeRunCompletes(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("fault-free run deadlocked")
	}
	if math.IsInf(res.Champion, 1) || res.Champion <= 0 {
		t.Errorf("champion = %f", res.Champion)
	}
	for p, rounds := range res.Rounds {
		if rounds < 1 {
			t.Errorf("process %d did %d rounds", p, rounds)
		}
	}
}

func TestTracesHaveMastersAndWorkers(t *testing.T) {
	tr := parlot.NewTracer(parlot.MainImage)
	cfg := smallConfig()
	cfg.Tracer = tr
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	set := tr.Collect()
	if len(set.Traces) != cfg.Procs*(cfg.Workers+1) {
		t.Fatalf("traces = %d, want %d", len(set.Traces), cfg.Procs*(cfg.Workers+1))
	}
	// Master trace: MPI + GOMP + CPU_Init; worker traces: CPU_Exec.
	master := set.Traces[trace.TID(0, 0)].Names(set.Registry)
	hasMPI, hasInit := false, false
	for _, n := range master {
		if n == "MPI_Allreduce" {
			hasMPI = true
		}
		if n == "CPU_Init" {
			hasInit = true
		}
		if n == "CPU_Exec" {
			t.Error("master should not run CPU_Exec")
		}
	}
	if !hasMPI || !hasInit {
		t.Errorf("master calls = %v", master)
	}
	worker := set.Traces[trace.TID(0, 1)].Names(set.Registry)
	execs := 0
	for _, n := range worker {
		if n == "CPU_Exec" {
			execs++
		}
		if n == "MPI_Allreduce" {
			t.Error("worker should not call MPI")
		}
	}
	if execs == 0 {
		t.Errorf("worker ran no CPU_Exec: %v", worker)
	}
}

func TestOmitCriticalRemovesGOMPCalls(t *testing.T) {
	tr := parlot.NewTracer(parlot.MainImage)
	cfg := smallConfig()
	cfg.Tracer = tr
	cfg.Plan = faults.NewPlan(faults.Fault{
		Kind: faults.OmitCritical, Process: 2, Thread: 1,
	})
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	set := tr.Collect()
	// The buggy worker still memcpys but never enters the critical section.
	buggy := set.Traces[trace.TID(2, 1)].Names(set.Registry)
	memcpys, criticals := 0, 0
	for _, n := range buggy {
		switch n {
		case "memcpy":
			memcpys++
		case "GOMP_critical_start":
			criticals++
		}
	}
	if memcpys == 0 {
		t.Error("buggy worker never updated its champion (seed-dependent?)")
	}
	if criticals != 0 {
		t.Errorf("buggy worker entered %d critical sections, want 0", criticals)
	}
	// A healthy worker that updated its champion did use the section.
	healthy := set.Traces[trace.TID(2, 2)].Names(set.Registry)
	hMem, hCrit := 0, 0
	for _, n := range healthy {
		switch n {
		case "memcpy":
			hMem++
		case "GOMP_critical_start":
			hCrit++
		}
	}
	if hMem > 0 && hCrit == 0 {
		t.Error("healthy worker updated champion without critical section")
	}
}

func TestWrongCollectiveSizeDeadlocks(t *testing.T) {
	tr := parlot.NewTracer(parlot.MainImage)
	cfg := smallConfig()
	cfg.Tracer = tr
	cfg.Plan = faults.NewPlan(faults.Fault{
		Kind: faults.WrongCollectiveSize, Process: 2, Thread: -1,
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatal("wrong-size collective did not deadlock")
	}
	set := tr.Collect()
	// Every master trace ends inside MPI_Allreduce and never reaches
	// MPI_Finalize (the Figure 7b shape).
	for p := 0; p < cfg.Procs; p++ {
		names := set.Traces[trace.TID(p, 0)].Names(set.Registry)
		last := names[len(names)-1]
		if last != "MPI_Allreduce" {
			t.Errorf("master %d last call = %s", p, last)
		}
		for _, n := range names {
			if n == "MPI_Finalize" {
				t.Errorf("master %d reached MPI_Finalize", p)
			}
		}
		if !set.Traces[trace.TID(p, 0)].Truncated {
			t.Errorf("master %d trace not truncated", p)
		}
	}
}

func TestWrongReduceOpCompletesWithMoreRounds(t *testing.T) {
	base := smallConfig()
	normal, err := Run(base)
	if err != nil || normal.Deadlocked {
		t.Fatal(err, normal)
	}
	buggy := smallConfig()
	buggy.Plan = faults.NewPlan(faults.Fault{
		Kind: faults.WrongReduceOp, Process: 0, Thread: -1,
	})
	res, err := Run(buggy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("wrong-op run deadlocked")
	}
	// The semantics change keeps the champion churning: the faulty search
	// must not terminate before the normal one (§IV-D: "many more
	// MPI_Bcast calls").
	if res.Rounds[0] < normal.Rounds[0] {
		t.Errorf("faulty rounds %d < normal rounds %d", res.Rounds[0], normal.Rounds[0])
	}
}

func TestTooFewProcs(t *testing.T) {
	if _, err := Run(Config{Procs: 1}); err == nil {
		t.Error("1-process run accepted")
	}
}

// TestTracesDeterminismAcrossGOMAXPROCS pins that a run is a function of its
// configuration: under GOMAXPROCS 1, 2 and 8, every fault site writes the
// same PLOT1 bytes and reports the same result.
func TestTracesDeterminismAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"none", nil},
		{"ompBug", faults.NewPlan(faults.Fault{Kind: faults.OmitCritical, Process: 2, Thread: 1})},
		{"wrongSize", faults.NewPlan(faults.Fault{Kind: faults.WrongCollectiveSize, Process: 2, Thread: -1})},
		{"wrongOp", faults.NewPlan(faults.Fault{Kind: faults.WrongReduceOp, Process: 0, Thread: -1})},
	}
	for _, p := range plans {
		var wantBytes []byte
		var wantRes string
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tr := parlot.NewTracer(parlot.MainImage)
			cfg := smallConfig()
			cfg.Tracer, cfg.Plan = tr, p.plan
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: %v", p.name, procs, err)
			}
			var buf bytes.Buffer
			if err := parlot.WriteSetBinary(&buf, tr.Collect()); err != nil {
				t.Fatal(err)
			}
			gotRes := fmt.Sprintf("%+v", *res)
			if wantBytes == nil {
				wantBytes, wantRes = buf.Bytes(), gotRes
				continue
			}
			if !bytes.Equal(buf.Bytes(), wantBytes) {
				t.Errorf("%s: traces under GOMAXPROCS=%d differ from GOMAXPROCS=1", p.name, procs)
			}
			if gotRes != wantRes {
				t.Errorf("%s: result under GOMAXPROCS=%d = %s, GOMAXPROCS=1 gave %s", p.name, procs, gotRes, wantRes)
			}
		}
	}
}

func TestEveryWorkerGetsMinimumShare(t *testing.T) {
	s := newTurns(7, 3, 4)
	count := map[int]int{}
	for i := 0; i < 4*minShare; i++ {
		count[s.owner]++
		s.finish()
	}
	for w := 1; w <= 4; w++ {
		if count[w] != minShare {
			t.Errorf("worker %d got %d of the first %d turns, want %d", w, count[w], 4*minShare, minShare)
		}
	}
}

func TestTooFewWorkers(t *testing.T) {
	if _, err := Run(Config{Procs: 2, Workers: -1}); err == nil {
		t.Error("run without worker threads accepted")
	}
}
