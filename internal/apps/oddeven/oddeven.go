// Package oddeven is the paper's running example (Figure 2): a textbook MPI
// odd/even transposition sort. Even phases pair even ranks with their right
// neighbors, odd phases pair odd ranks with theirs; each pair exchanges
// values and keeps the sorted halves.
//
// Fault sites (§II-G, with the default 16-rank configuration):
//
//   - swapBug: the targeted rank swaps its Recv;Send order after the given
//     iteration. Head-to-head Send||Send completes under the eager limit —
//     a *potential* deadlock only — but the loop body changes, which NLR
//     summarization surfaces as L1^7 followed by L0^9 (Figure 5).
//   - dlBug: the targeted rank parks in a receive nobody matches, an actual
//     deadlock; the detector aborts the world, truncating every trace
//     (Figure 6).
package oddeven

import (
	"fmt"
	"math/rand" //lint:allow wallclock seeded from Config.Seed only — the generated trace is a pure function of the config
	"sync"

	"difftrace/internal/faults"
	"difftrace/internal/mpi"
	"difftrace/internal/otf"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// Config parameterizes one run.
type Config struct {
	Procs  int // number of MPI ranks (4 in Table II, 16 in §II-G)
	Seed   int64
	Plan   *faults.Plan
	Tracer *parlot.Tracer
	Clock  *otf.Log // optional logical-clock recorder (otf.NewLog(Procs))
}

// eagerLimit is the MPI eager limit in elements; payloads stay below it
// (swapBug must not hang).
const eagerLimit = 16

// Result reports the run outcome.
type Result struct {
	Values     []float64 // final per-rank values (valid when Err == nil)
	Deadlocked bool
	// Witness lists, for a deadlocked run, the operation each rank was
	// blocked in when the detector fired.
	Witness []string
}

// Run executes the sort and returns the result. A deadlock abort is
// reported in Result, not as an error (it is an *expected* outcome of the
// dlBug plan; the traces are the point).
func Run(cfg Config) (*Result, error) {
	if cfg.Procs < 2 {
		return nil, fmt.Errorf("oddeven: need at least 2 ranks, got %d", cfg.Procs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	initial := make([]float64, cfg.Procs)
	for i := range initial {
		initial[i] = float64(rng.Intn(1000))
	}

	res := &Result{Values: make([]float64, cfg.Procs)}
	var mu sync.Mutex
	world := mpi.NewWorld(cfg.Procs, eagerLimit)
	if cfg.Clock != nil {
		world.AttachClock(cfg.Clock)
	}
	err := world.Run(cfg.Tracer, func(r *mpi.Rank) error {
		var th *parlot.ThreadTracer
		if cfg.Tracer != nil {
			th = cfg.Tracer.Thread(trace.TID(rankOf(r), 0))
		}
		v, err := rankMain(r, th, initial[rankOf(r)], cfg.Plan)
		if err != nil {
			return err
		}
		mu.Lock()
		res.Values[rankOf(r)] = v
		mu.Unlock()
		return nil
	})
	if err == mpi.ErrDeadlock {
		res.Deadlocked = true
		res.Witness = world.DeadlockWitness()
		return res, nil
	}
	return res, err
}

// rankOf extracts the rank index without tracing (r.Rank() traces).
func rankOf(r *mpi.Rank) int { return r.UntracedRank() }

// rankMain is Figure 2's main(): MPI setup, oddEvenSort, MPI_Finalize.
func rankMain(r *mpi.Rank, th *parlot.ThreadTracer, value float64, plan *faults.Plan) (float64, error) {
	if th != nil {
		th.Enter("main")
	}
	r.Init()
	rank := r.Rank()
	cp := r.Size()

	v, err := oddEvenSort(r, th, rank, cp, value, plan)
	if err != nil {
		return 0, err
	}
	if err := r.Finalize(); err != nil {
		return 0, err
	}
	if th != nil {
		th.Exit("main")
	}
	return v, nil
}

// oddEvenSort is Figure 2's oddEvenSort(): cp phases of neighbor exchange.
func oddEvenSort(r *mpi.Rank, th *parlot.ThreadTracer, rank, cp int, value float64, plan *faults.Plan) (float64, error) {
	if th != nil {
		th.Enter("oddEvenSort")
		defer th.Exit("oddEvenSort")
	}
	for i := 0; i < cp; i++ {
		ptr := findPtr(th, i, rank)
		if ptr < 0 || ptr >= cp {
			continue // edge ranks sit out half the phases (Table II note)
		}
		if plan.Active(faults.DeadlockStop, rank, 0, i) {
			// dlBug: an actual deadlock — a receive nobody will match.
			return 0, r.Hang("MPI_Recv")
		}
		sendFirst := rank%2 == 0
		if plan.Active(faults.SwapSendRecv, rank, 0, i) {
			sendFirst = !sendFirst
		}
		var other float64
		if sendFirst {
			if err := r.Send(ptr, i, []float64{value}); err != nil {
				return 0, err
			}
			got, err := r.Recv(ptr, i)
			if err != nil {
				return 0, err
			}
			other = got[0]
		} else {
			got, err := r.Recv(ptr, i)
			if err != nil {
				return 0, err
			}
			other = got[0]
			if err := r.Send(ptr, i, []float64{value}); err != nil {
				return 0, err
			}
		}
		// Conditional swap: the left partner keeps the minimum.
		if rank < ptr {
			value = min(value, other)
		} else {
			value = max(value, other)
		}
	}
	return value, nil
}

// findPtr is Figure 2's partner computation: in even phases even ranks look
// right, in odd phases odd ranks look right.
func findPtr(th *parlot.ThreadTracer, phase, rank int) int {
	if th != nil {
		th.Enter("findPtr")
		defer th.Exit("findPtr")
	}
	if phase%2 == rank%2 {
		return rank + 1
	}
	return rank - 1
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
